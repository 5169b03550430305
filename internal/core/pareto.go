package core

import (
	"bytes"
	"math"
	"strconv"
	"strings"
)

// Deterministic ranking and Pareto-front maintenance. Candidate labels are
// not unique (the two SC conductance-allocation policies of one cell share
// a label, as can two capacitor shares that land on the same interleave
// count), so every tie-break in the package goes through candidateKey — a
// canonical, total identity — rather than input order or map iteration.
// Comparators take *Candidate so a sort or scan never copies the struct,
// and compareKeys settles key order without formatting whole keys: the
// policy twins that tie most often are usually bit-identical, and those
// compare equal without formatting anything.

// fmtG renders a float at shortest-round-trip precision, the same
// formatting the spec hash uses.
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// candidateKey is the canonical identity of an evaluated design point:
// family, configuration label, and the full-precision metric tuple. Two
// candidates with equal keys are interchangeable for ranking purposes.
func candidateKey(c Candidate) string {
	m := c.Metrics
	return strings.Join([]string{
		strconv.Itoa(int(c.Kind)), c.Label,
		fmtG(m.Efficiency), fmtG(m.AreaDie), fmtG(m.RippleVpp), fmtG(m.FSw), fmtG(m.POut),
	}, "|")
}

// compareKeys returns strings.Compare(candidateKey(*a), candidateKey(*b))
// without building either key. Rows of one kind and label — the tied
// policy twins that differ by a rounding step in area or ripple — share
// the key up to the first metric that differs, so only that pair is
// formatted, on the stack. No float renders a "|", and every byte a float
// renders sorts below it, so that pair's bytes with the separator after
// them decide the order exactly as the whole keys do; rows with equal
// keys compare 0 with nothing formatted. Rows of different kind or label
// compare their formatted keys.
func compareKeys(a, b *Candidate) int {
	if a.Kind != b.Kind || a.Label != b.Label {
		return strings.Compare(candidateKey(*a), candidateKey(*b))
	}
	am, bm := &a.Metrics, &b.Metrics
	parts := [...][2]float64{
		{am.Efficiency, bm.Efficiency}, {am.AreaDie, bm.AreaDie}, {am.RippleVpp, bm.RippleVpp},
		{am.FSw, bm.FSw}, {am.POut, bm.POut},
	}
	for i, p := range parts {
		if sameG(p[0], p[1]) {
			continue
		}
		var xa, xb [32]byte
		x := strconv.AppendFloat(xa[:0], p[0], 'g', -1, 64)
		y := strconv.AppendFloat(xb[:0], p[1], 'g', -1, 64)
		if i < len(parts)-1 { // the key's last part has no separator after it
			x, y = append(x, '|'), append(y, '|')
		}
		return bytes.Compare(x, y)
	}
	return 0
}

// sameG reports whether fmtG(x) == fmtG(y): shortest round-trip
// formatting maps distinct floats to distinct strings, except that every
// NaN prints "NaN".
func sameG(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// finiteMetrics reports whether the metrics that drive ranking and
// dominance are all finite. Infeasible evaluations can surface NaN rows;
// those must never win a comparison (NaN compares false both ways, which
// under a naive sort leaves them wherever the input order put them).
func finiteMetrics(c *Candidate) bool {
	for _, v := range [...]float64{c.Metrics.Efficiency, c.Metrics.AreaDie, c.Metrics.RippleVpp} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ranking is the package's one ranking order: the objective and
// efficiency floor a run ranks under. rankCandidates sorts by it, the live
// tracker keeps its best-so-far by it, and the adaptive search's winner
// board places by it. The order is total: finite rows first, ranked by
// the objective and then the canonical candidate key; then the rows with
// non-finite metrics, by the key alone (their objective value may be NaN,
// which ties with every value and would leave the order intransitive).
// Rows with equal keys are equivalent. Sorting with it is deterministic
// under any input permutation.
type ranking struct {
	obj   Objective
	floor float64
}

// rankKey is one candidate's ranking key, computed once per row: whether
// its ranking metrics are finite, whether it clears the efficiency floor,
// and its objective value.
type rankKey struct {
	c      *Candidate
	v      float64
	finite bool
	floor  bool
}

// key computes c's ranking key.
func (r ranking) key(c *Candidate) rankKey {
	m := &c.Metrics
	k := rankKey{c: c, finite: finiteMetrics(c), floor: m.Efficiency >= r.floor, v: m.Efficiency}
	switch r.obj {
	case MinArea:
		k.v = m.AreaDie
	case MinNoise:
		k.v = m.RippleVpp
	}
	return k
}

// less reports whether a ranks strictly before b. Distinct rows the
// objective does not order are settled by compareKeys, without formatting
// a key.
func (r ranking) less(a, b *rankKey) bool {
	if a.finite != b.finite {
		return a.finite
	}
	if a.finite && r.better(a, b) {
		return true
	}
	if a.finite && r.better(b, a) {
		return false
	}
	return compareKeys(a.c, b.c) < 0
}

// better is the raw objective comparison, a strict partial order: ties
// (and NaN pairs) compare false both ways. MaxEfficiency ranks higher
// efficiency first; the gated objectives rank rows above the floor first,
// then the lower objective value.
func (r ranking) better(a, b *rankKey) bool {
	if !r.gated() {
		return a.v > b.v
	}
	if a.floor != b.floor {
		return a.floor
	}
	return a.v < b.v
}

// gated reports whether the objective ranks rows that clear the
// efficiency floor first (MinArea, MinNoise); MaxEfficiency is ungated.
func (r ranking) gated() bool { return r.obj == MinArea || r.obj == MinNoise }

// ParetoSet maintains the set of mutually non-dominated candidates in the
// (efficiency up, area down) plane incrementally: each Insert is O(front
// size), so a running exploration can keep the trade-off curve current
// without the O(n²) recompute over the full candidate list. Dominance
// requires strictly-better in at least one objective, so exact metric
// duplicates coexist on the front. Candidates with non-finite metrics are
// rejected at insertion.
type ParetoSet struct {
	items []*Candidate
}

// NewParetoSet builds an empty set.
func NewParetoSet() *ParetoSet { return &ParetoSet{} }

// dominates reports whether a beats-or-ties c in every objective and
// strictly beats it in at least one.
func dominates(a, c *Candidate) bool {
	am, cm := &a.Metrics, &c.Metrics
	if am.Efficiency < cm.Efficiency || am.AreaDie > cm.AreaDie {
		return false
	}
	return am.Efficiency > cm.Efficiency || am.AreaDie < cm.AreaDie
}

// Insert adds c if no current member dominates it, evicting members c
// dominates. It reports whether c joined the front. The set keeps c, so
// the caller must not modify it afterwards.
func (p *ParetoSet) Insert(c *Candidate) bool {
	if !finiteMetrics(c) {
		return false
	}
	// Check domination before filtering: the filter compacts p.items in
	// place, so it must only run once c is known to join.
	for _, d := range p.items {
		if dominates(d, c) {
			return false
		}
	}
	keep := p.items[:0]
	for _, d := range p.items {
		if !dominates(c, d) {
			keep = append(keep, d)
		}
	}
	p.items = append(keep, c)
	return true
}

// Size returns the current front cardinality.
func (p *ParetoSet) Size() int { return len(p.items) }
