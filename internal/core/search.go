package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ivory/internal/topology"
)

// Adaptive design-space exploration: the exhaustive sweep minus one sound
// prune, behind Spec.Search == SearchAdaptive.
//
// An SC topology's output is at most the ideal conversion ratio times
// VIn, so its efficiency can never exceed VOut/(Ratio·VIn). The search
// evaluates every buck and LDO configuration first (those families have
// no such ceiling), then visits the SC topology groups from the highest
// ceiling to the lowest. A group whose ceiling cannot place a candidate
// on the run's top-winnersK board is skipped unsized; every other group
// is evaluated in full. A skipped group holds no candidate that could
// rank in the top winnersK, so the best and the top winnersK are the
// exhaustive sweep's, and a pruned run is never infeasible where the
// sweep is feasible (the board is full before anything is pruned).
//
// Pruning decisions happen at stage boundaries, after a deterministic
// merge of the stage's outcomes — never from racing worker state — so the
// adaptive path is bit-identical for every worker count, exactly like the
// exhaustive one.

// SearchStrategy selects how Explore covers the design space.
type SearchStrategy int

const (
	// SearchExhaustive sweeps the full configuration lattice (the paper's
	// flow, and the reference the adaptive mode is validated against).
	SearchExhaustive SearchStrategy = iota
	// SearchAdaptive skips SC topology groups whose analytic efficiency
	// ceiling cannot place in the top winners; see the comment above.
	SearchAdaptive
)

func (s SearchStrategy) String() string {
	switch s {
	case SearchExhaustive:
		return "exhaustive"
	case SearchAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("SearchStrategy(%d)", int(s))
	}
}

// ParseSearch maps a strategy name to its constant. Empty selects the
// exhaustive reference path.
func ParseSearch(s string) (SearchStrategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "exhaustive", "full":
		return SearchExhaustive, nil
	case "adaptive", "pruned":
		return SearchAdaptive, nil
	default:
		return SearchExhaustive, fmt.Errorf("core: unknown search strategy %q (want exhaustive|adaptive)", s)
	}
}

// winnersK is the depth of the winner board the prune preserves: the
// adaptive result's top-winnersK ranked candidates are the exhaustive
// sweep's.
const winnersK = 3

// winnerBoard holds the top-winnersK candidates seen so far under the
// run's total ranking order. The prune consults it: a group is only
// skipped when its analytic ceiling cannot displace the board's last
// entry.
type winnerBoard struct {
	rank ranking
	list []rankKey
}

// observe offers c to the board, which keeps c if it places; the caller
// must not modify it afterwards.
func (w *winnerBoard) observe(c *Candidate) {
	k := w.rank.key(c)
	i := sort.Search(len(w.list), func(i int) bool { return w.rank.less(&k, &w.list[i]) })
	if i >= winnersK {
		return
	}
	w.list = slices.Insert(w.list, i, k)
	if len(w.list) > winnersK {
		w.list = w.list[:winnersK]
	}
}

// canBeat reports whether a group with the given analytic efficiency
// ceiling could still place a candidate on the board. Until the board
// holds winnersK candidates with finite metrics nothing is pruned (a non-finite
// row ranks after every finite one). Under MaxEfficiency the ceiling must
// reach the board's worst efficiency; under the floor-gated objectives a
// group below the floor is only prunable once the whole board clears the
// floor (sub-floor rows rank after every above-floor row, so they can no
// longer displace anything).
func (w *winnerBoard) canBeat(bound float64) bool {
	if len(w.list) < winnersK || !w.list[len(w.list)-1].finite {
		return true
	}
	last := w.list[len(w.list)-1].c.Metrics.Efficiency
	if w.rank.gated() {
		return bound >= w.rank.floor || last < w.rank.floor
	}
	return bound >= last
}

// runStage fans one deterministic batch of refs through the evaluator,
// merges the outcomes in ref order, and feeds the winner board. Pruning
// decisions made after runStage returns therefore depend only on the
// stage's ref list, never on scheduling — and the evaluator may be the
// local pool or any wrapper around EvalRefs, indistinguishably.
func runStage(spec Spec, tr *tracker, m *merged, win *winnerBoard, eval Evaluator, refs []ConfigRef) error {
	if len(refs) == 0 {
		return nil
	}
	tr.addJobs(len(refs))
	done, end := tr.batch(refs)
	outs, err := eval(specContext(spec), refs, done)
	end(outs)
	m.add(outs)
	for i := range outs {
		for j := range outs[i].Candidates {
			win.observe(&outs[i].Candidates[j])
		}
	}
	return err
}

// exploreAdaptive is exploreExhaustive with the SC topology groups the
// winner board rules out skipped unsized.
func exploreAdaptive(spec Spec, ec *evalContext, m *merged, tr *tracker, eval Evaluator) error {
	refs := enumerateCounted(ec, m, tr)
	// One stage of every unbounded (buck and LDO) ref, and one group of
	// refs per SC topology, in enumeration order.
	type group struct {
		bound float64
		refs  []ConfigRef
	}
	var rest []ConfigRef
	var groups []group
	for i, r := range refs {
		switch {
		case r.Kind != KindSC:
			rest = append(rest, r)
		case i > 0 && refs[i-1].Kind == KindSC && refs[i-1].Topo == r.Topo:
			groups[len(groups)-1].refs = append(groups[len(groups)-1].refs, r)
		default:
			groups = append(groups, group{bound: scEfficiencyBound(spec, ec.topos[r.Topo]), refs: []ConfigRef{r}})
		}
	}
	win := &winnerBoard{rank: ranking{spec.Objective, spec.EfficiencyFloor}}
	if err := runStage(spec, tr, m, win, eval, rest); err != nil {
		return err
	}
	// Highest ceiling first: the early groups set the bar the later ones
	// must analytically clear.
	slices.SortStableFunc(groups, func(a, b group) int { return cmp.Compare(b.bound, a.bound) })
	for _, g := range groups {
		if !win.canBeat(g.bound) {
			// Each SC ref sizes both allocation policies.
			tr.prunedBound(2 * len(g.refs))
			continue
		}
		if err := runStage(spec, tr, m, win, eval, g.refs); err != nil {
			return err
		}
	}
	return nil
}

// scEfficiencyBound is the analytic ceiling of one SC topology: the
// regulated output is VOut while the ideal (unloaded) output is
// Ratio·VIn, so conversion efficiency cannot exceed their quotient — the
// intrinsic charge-transfer loss of regulating below the ideal ratio.
func scEfficiencyBound(spec Spec, an *topology.Analysis) float64 {
	return spec.VOut / (an.Ratio * spec.VIn)
}
