package core

import (
	"math"
	"strconv"
	"strings"
)

// Deterministic ranking and Pareto-front maintenance. Candidate labels are
// not unique (the two SC conductance-allocation policies of one cell share
// a label, as can two capacitor shares that land on the same interleave
// count), so every tie-break in the package goes through candidateKey — a
// canonical, total identity — rather than input order or map iteration.

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

// finiteMetrics reports whether the metrics that drive ranking and
// dominance are all finite. Infeasible evaluations can surface NaN rows;
// those must never win a comparison (NaN compares false both ways, which
// under a naive sort leaves them wherever the input order put them).
func finiteMetrics(c Candidate) bool {
	for _, v := range []float64{c.Metrics.Efficiency, c.Metrics.AreaDie, c.Metrics.RippleVpp} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// objectiveLess is the raw objective comparison used by rank, the
// best-so-far tracker, and the adaptive search. It is a strict partial
// order: ties (and NaN pairs) compare false both ways.
func objectiveLess(obj Objective, floor float64) func(a, b Candidate) bool {
	switch obj {
	case MinArea:
		return func(a, b Candidate) bool {
			aOK, bOK := a.Metrics.Efficiency >= floor, b.Metrics.Efficiency >= floor
			if aOK != bOK {
				return aOK
			}
			return a.Metrics.AreaDie < b.Metrics.AreaDie
		}
	case MinNoise:
		return func(a, b Candidate) bool {
			aOK, bOK := a.Metrics.Efficiency >= floor, b.Metrics.Efficiency >= floor
			if aOK != bOK {
				return aOK
			}
			return a.Metrics.RippleVpp < b.Metrics.RippleVpp
		}
	default:
		return func(a, b Candidate) bool {
			return a.Metrics.Efficiency > b.Metrics.Efficiency
		}
	}
}

// rankLess extends objectiveLess to a total order: finite rows first, then
// the objective, then the canonical key. Sorting with it is deterministic
// under any input permutation.
func rankLess(obj Objective, floor float64) func(a, b Candidate) bool {
	less := objectiveLess(obj, floor)
	return func(a, b Candidate) bool {
		if af, bf := finiteMetrics(a), finiteMetrics(b); af != bf {
			return af
		}
		if less(a, b) {
			return true
		}
		if less(b, a) {
			return false
		}
		return candidateKey(a) < candidateKey(b)
	}
}

// ParetoSet maintains the set of mutually non-dominated candidates in the
// (efficiency up, area down) plane incrementally: each Insert is O(front
// size), so a running exploration can keep the trade-off curve current
// without the O(n²) recompute over the full candidate list. Dominance
// requires strictly-better in at least one objective, so exact metric
// duplicates coexist on the front. Candidates with non-finite metrics are
// rejected at insertion.
type ParetoSet struct {
	items []Candidate
}

// NewParetoSet builds an empty set.
func NewParetoSet() *ParetoSet { return &ParetoSet{} }

// dominates reports whether a beats-or-ties c in every objective and
// strictly beats it in at least one.
func dominates(a, c Candidate) bool {
	am, cm := a.Metrics, c.Metrics
	if am.Efficiency < cm.Efficiency || am.AreaDie > cm.AreaDie {
		return false
	}
	return am.Efficiency > cm.Efficiency || am.AreaDie < cm.AreaDie
}

// Insert adds c if no current member dominates it, evicting members c
// dominates. It reports whether c joined the front.
func (p *ParetoSet) Insert(c Candidate) bool {
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
