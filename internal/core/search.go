package core

import (
	"fmt"
	"sort"
	"strings"

	"ivory/internal/topology"
)

// Adaptive design-space exploration. The exhaustive sweep visits every
// lattice point; this file implements the pruned strategy behind
// Spec.Search == SearchAdaptive:
//
//   - Analytic efficiency bounds. An SC topology's output is at most the
//     ideal conversion ratio times VIn, so its efficiency can never exceed
//     VOut/(Ratio·VIn). Topology groups are explored best-ceiling-first
//     and each is refined to convergence before the next group's gate, so
//     the loop is a branch-and-bound: a group whose ceiling cannot beat
//     the already-refined winners is skipped wholesale, before any sizing
//     runs.
//   - Successive halving. Each admitted group's (capacitor kind) cells are
//     probed at the low and middle capacitor shares — feasibility islands
//     hug the low-share end on power-dense specs — and only the best cell
//     (plus any cell holding a current winner) is refined, by bisecting
//     the share axis around the incumbent instead of sweeping it. The buck
//     family bisects the same way along its frequency axis. The LDO
//     lattice is smaller than one SC probe stage, so it is evaluated in
//     full.
//   - Incremental Pareto maintenance. Every accepted candidate feeds the
//     tracker's running (efficiency, area) front, so streamed telemetry
//     carries the trade-off curve as it grows.
//
// All pruning decisions happen at stage boundaries, after a deterministic
// merge of the stage's shards — never from racing worker state — so the
// adaptive path is bit-identical for every worker count, exactly like the
// exhaustive one.

// SearchStrategy selects how Explore covers the design space.
type SearchStrategy int

const (
	// SearchExhaustive sweeps the full configuration lattice (the paper's
	// flow, and the reference the adaptive mode is validated against).
	SearchExhaustive SearchStrategy = iota
	// SearchAdaptive prunes with analytic efficiency bounds and
	// successive halving; see the package comment above.
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

// Adaptive tuning. winnersK is the depth of the winner board the pruning
// rules must preserve: the adaptive result's top-winnersK ranked
// candidates match the exhaustive sweep's on the committed paper specs
// (pinned by the equivalence tests). keepCells is how many SC lattice
// cells survive the halving stage on probe merit alone; cells holding a
// current winner are always kept in addition.
const (
	winnersK  = 3
	keepCells = 1
)

// winnerBoard holds the top-k candidates seen so far under the run's
// total ranking order. Pruning rules consult it: a region is only skipped
// when its analytic ceiling cannot displace the board's last entry.
type winnerBoard struct {
	k    int
	less func(a, b Candidate) bool
	list []Candidate
}

func (w *winnerBoard) observe(c Candidate) {
	i := sort.Search(len(w.list), func(i int) bool { return w.less(c, w.list[i]) })
	if i >= w.k {
		return
	}
	w.list = append(w.list, Candidate{})
	copy(w.list[i+1:], w.list[i:])
	w.list[i] = c
	if len(w.list) > w.k {
		w.list = w.list[:w.k]
	}
}

func (w *winnerBoard) contains(key string) bool {
	for _, c := range w.list {
		if candidateKey(c) == key {
			return true
		}
	}
	return false
}

// canBeat reports whether a region with the given analytic efficiency
// ceiling could still place a candidate on the board. Until the board is
// full nothing is pruned. Under MaxEfficiency the ceiling must reach the
// board's worst efficiency; under the floor-gated objectives a region
// below the floor is only prunable once the whole board clears the floor
// (sub-floor rows rank after every above-floor row, so they can no longer
// displace anything).
func (w *winnerBoard) canBeat(obj Objective, floor, bound float64) bool {
	if len(w.list) < w.k {
		return true
	}
	switch obj {
	case MinArea, MinNoise:
		if bound >= floor {
			return true
		}
		return w.list[len(w.list)-1].Metrics.Efficiency < floor
	default:
		return bound >= w.list[len(w.list)-1].Metrics.Efficiency
	}
}

// runStage fans one deterministic batch of refs through the evaluator,
// merges the outcomes in ref order into the result, and feeds the winner
// board. Pruning decisions made after runStage returns therefore depend
// only on the stage's ref list, never on scheduling — and the evaluator
// may be the local pool or a cluster dispatch, indistinguishably.
func runStage(spec Spec, tr *tracker, res *Result, win *winnerBoard, eval Evaluator, refs []ConfigRef) ([]RefOutcome, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	tr.addJobs(len(refs))
	outs, ferr := eval(specContext(spec), refs, func(i int, out *RefOutcome) {
		tr.jobDone(refs[i].Kind, out.Candidates, out.Rejected)
	})
	for i := range outs {
		res.Candidates = append(res.Candidates, outs[i].Candidates...)
		res.Rejected += outs[i].Rejected
		for _, c := range outs[i].Candidates {
			win.observe(c)
		}
	}
	return outs, ferr
}

// exploreAdaptive is the staged, pruned counterpart of exploreExhaustive.
func exploreAdaptive(spec Spec, ec *evalContext, res *Result, tr *tracker, eval Evaluator) error {
	win := &winnerBoard{k: winnersK, less: rankLess(spec.Objective, spec.EfficiencyFloor)}
	for _, k := range spec.Kinds {
		var err error
		switch k {
		case KindSC:
			err = adaptiveSC(spec, ec, res, tr, win, eval)
		case KindBuck:
			err = adaptiveBuck(spec, ec, res, tr, win, eval)
		case KindLDO:
			err = adaptiveLDO(spec, ec, res, tr, win, eval)
		}
		if err != nil {
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

// axisCell tracks one lattice cell (a fixed choice of every axis except
// the halved one) through probe and refinement stages. Cells address their
// fixed axes by canonical ConfigRef indices, so stage refs can be shipped
// to any evaluator.
type axisCell struct {
	key     string       // deterministic tie-break among cells
	done    map[int]bool // axis indices already evaluated
	best    *Candidate   // best accepted candidate in the cell so far
	bestIdx int          // axis index that produced best

	// SC cell context (unused by buck cells).
	topoIdx int // scRatios index
	capIdx  int // scCapKinds index
	bound   float64
	// Buck cell context.
	planIdx int // phase-plan index
}

// absorb folds the accepted candidates of one (cell, axis index)
// evaluation into the cell state.
func (c *axisCell) absorb(idx int, cands []Candidate, less func(a, b Candidate) bool) {
	for i := range cands {
		if c.best == nil || less(cands[i], *c.best) {
			cc := cands[i]
			c.best = &cc
			c.bestIdx = idx
		}
	}
}

// nextProbes returns the axis indices the cell wants evaluated next:
// bisection of the gaps flanking the incumbent, then a ±2 polish window
// so the runner-up grid points near the optimum are evaluated too. A cell
// with no accepted candidate yet asks for the axis endpoints once, then
// gives up. Indices are ascending for determinism.
func (c *axisCell) nextProbes(n int) []int {
	if c.best == nil {
		var out []int
		for _, i := range []int{0, n - 1} {
			if !c.done[i] {
				out = append(out, i)
			}
		}
		return out
	}
	b := c.bestIdx
	lo, hi := -1, n
	for i := b - 1; i >= 0; i-- {
		if c.done[i] {
			lo = i
			break
		}
	}
	for i := b + 1; i < n; i++ {
		if c.done[i] {
			hi = i
			break
		}
	}
	var out []int
	if b-lo > 1 {
		out = append(out, (b+lo)/2)
	}
	if hi-b > 1 {
		out = append(out, (b+hi)/2)
	}
	if len(out) == 0 {
		for i := b - 2; i <= b+2; i++ {
			if i >= 0 && i < n && !c.done[i] {
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// adaptiveSC explores the switched-capacitor slice topology group by
// topology group, highest analytic ceiling first. Each admitted group is
// probed at the low and middle capacitor shares, halved down to its best
// cell (winner-holding cells are always kept), and refined by bisection —
// all before the next group's bound gate runs, so later groups face the
// strongest possible incumbents and whole topologies are pruned unsized.
func adaptiveSC(spec Spec, ec *evalContext, res *Result, tr *tracker, win *winnerBoard, eval Evaluator) error {
	shares := scCapShares
	type group struct {
		bound float64
		name  string
		cells []*axisCell
	}
	var groups []group
	for ti, an := range ec.topos {
		if an == nil {
			res.Rejected++
			tr.enumRejected(KindSC, 1)
			continue
		}
		g := group{bound: scEfficiencyBound(spec, an), name: an.Name}
		for ci := range scCapKinds {
			if !ec.capOK[ci] {
				continue
			}
			g.cells = append(g.cells, &axisCell{
				key:     fmt.Sprintf("%s|%v", an.Name, scCapKinds[ci]),
				done:    map[int]bool{},
				topoIdx: ti,
				capIdx:  ci,
				bound:   g.bound,
			})
		}
		if len(g.cells) > 0 {
			groups = append(groups, g)
		}
	}
	// Highest ceiling first: the early groups set the bar the later ones
	// must analytically clear.
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].bound > groups[j].bound {
			return true
		}
		if groups[i].bound < groups[j].bound {
			return false
		}
		return groups[i].name < groups[j].name
	})

	scRefs := func(cells []*axisCell, picks [][]int) ([]ConfigRef, []*axisCell, []int) {
		var refs []ConfigRef
		var owner []*axisCell
		var ownerIdx []int
		for ci, c := range cells {
			for _, idx := range picks[ci] {
				c.done[idx] = true
				// Policy order matches the exhaustive unit: cost-aware
				// first, then uniform.
				for _, pol := range []int{PolCostAware, PolUniform} {
					refs = append(refs, ConfigRef{Kind: KindSC, Topo: c.topoIdx, Cap: c.capIdx, Axis: idx, Pol: pol})
					owner = append(owner, c)
					ownerIdx = append(ownerIdx, idx)
				}
			}
		}
		return refs, owner, ownerIdx
	}
	absorbStage := func(outs []RefOutcome, owner []*axisCell, ownerIdx []int) {
		for i := range outs {
			owner[i].absorb(ownerIdx[i], outs[i].Candidates, win.less)
		}
	}

	// Probe at the low and middle shares: on power-dense specs the
	// feasibility island hugs the low-share end (decap starves first), on
	// relaxed specs everything is feasible and the mid probe ranks cells.
	probeIdx := []int{0, len(shares) / 2}
	for _, g := range groups {
		// Bound gate: by the time a group is considered, every better
		// ceiling has already been refined, so the board is as strong as
		// it will get.
		if !win.canBeat(spec.Objective, spec.EfficiencyFloor, g.bound) {
			tr.prunedBound(len(g.cells) * len(shares) * 2)
			continue
		}
		picks := make([][]int, len(g.cells))
		for i := range picks {
			picks[i] = probeIdx
		}
		refs, owner, ownerIdx := scRefs(g.cells, picks)
		outs, err := runStage(spec, tr, res, win, eval, refs)
		absorbStage(outs, owner, ownerIdx)
		if err != nil {
			return err
		}

		// Halve within the group: rank cells by probe merit, keep the best
		// keepCells plus any cell holding a current winner. A kept cell
		// whose probes were all infeasible still gets its high endpoint
		// probed once during refinement (axisCell.nextProbes), rescuing
		// islands that sit above the mid share.
		ranked := append([]*axisCell(nil), g.cells...)
		sort.SliceStable(ranked, func(i, j int) bool {
			a, b := ranked[i], ranked[j]
			if (a.best != nil) != (b.best != nil) {
				return a.best != nil
			}
			if a.best != nil && b.best != nil {
				if win.less(*a.best, *b.best) {
					return true
				}
				if win.less(*b.best, *a.best) {
					return false
				}
			}
			return a.key < b.key
		})
		kept := ranked[:min(keepCells, len(ranked))]
		for _, c := range ranked[len(kept):] {
			if c.best != nil && win.contains(candidateKey(*c.best)) {
				kept = append(kept, c)
			}
		}

		// Refine the survivors' share axis by bisection until every cell
		// converges.
		for {
			picks := make([][]int, len(kept))
			total := 0
			for i, c := range kept {
				picks[i] = c.nextProbes(len(shares))
				total += len(picks[i])
			}
			if total == 0 {
				break
			}
			refs, owner, ownerIdx := scRefs(kept, picks)
			outs, err := runStage(spec, tr, res, win, eval, refs)
			absorbStage(outs, owner, ownerIdx)
			if err != nil {
				return err
			}
		}
		// Account every share the halving never visited.
		for _, c := range g.cells {
			tr.prunedHalving((len(shares) - len(c.done)) * 2)
		}
	}
	return nil
}

// adaptiveBuck explores the buck slice with one cell per phase-count plan
// and bisection refinement along the frequency axis. There is no useful
// analytic efficiency ceiling for a buck (ideally lossless at any ratio),
// so both cells are refined — the savings come from the frequency axis.
func adaptiveBuck(spec Spec, ec *evalContext, res *Result, tr *tracker, win *winnerBoard, eval Evaluator) error {
	if !ec.indOK {
		res.Rejected++
		tr.enumRejected(KindBuck, 1)
		return nil
	}
	// The cell's axis runs over the FSwMax-admissible frequencies; freqIdx
	// maps each local axis position back to the canonical buckFreqs index a
	// ConfigRef carries.
	var freqIdx []int
	for fi, f := range buckFreqs {
		if f <= spec.FSwMax {
			freqIdx = append(freqIdx, fi)
		}
	}
	if len(freqIdx) == 0 {
		return nil
	}
	var cells []*axisCell
	for pi, phases := range ec.phasePlans {
		cells = append(cells, &axisCell{
			key:     fmt.Sprintf("buck|x%d", phases),
			done:    map[int]bool{},
			planIdx: pi,
		})
	}
	buckRefs := func(picks [][]int) ([]ConfigRef, []*axisCell, []int) {
		var refs []ConfigRef
		var owner []*axisCell
		var ownerIdx []int
		for ci, c := range cells {
			for _, idx := range picks[ci] {
				c.done[idx] = true
				refs = append(refs, ConfigRef{Kind: KindBuck, Topo: c.planIdx, Axis: freqIdx[idx]})
				owner = append(owner, c)
				ownerIdx = append(ownerIdx, idx)
			}
		}
		return refs, owner, ownerIdx
	}
	// Probe the low and middle frequencies, then bisect each cell to
	// convergence.
	first := true
	for {
		picks := make([][]int, len(cells))
		total := 0
		for i, c := range cells {
			if first {
				picks[i] = []int{0, len(freqIdx) / 2}
				if picks[i][1] == 0 {
					picks[i] = picks[i][:1]
				}
			} else {
				picks[i] = c.nextProbes(len(freqIdx))
			}
			total += len(picks[i])
		}
		first = false
		if total == 0 {
			break
		}
		refs, owner, ownerIdx := buckRefs(picks)
		outs, err := runStage(spec, tr, res, win, eval, refs)
		for i := range outs {
			owner[i].absorb(ownerIdx[i], outs[i].Candidates, win.less)
		}
		if err != nil {
			return err
		}
	}
	for _, c := range cells {
		tr.prunedHalving(len(freqIdx) - len(c.done))
	}
	return nil
}

// adaptiveLDO evaluates the full LDO lattice: at five sample frequencies
// it is smaller than a single SC probe stage, and evaluating it keeps the
// per-family best exact.
func adaptiveLDO(spec Spec, _ *evalContext, res *Result, tr *tracker, win *winnerBoard, eval Evaluator) error {
	var refs []ConfigRef
	for fi, fs := range ldoSampleFreqs {
		if fs > spec.FSwMax {
			continue
		}
		refs = append(refs, ConfigRef{Kind: KindLDO, Axis: fi})
	}
	_, err := runStage(spec, tr, res, win, eval, refs)
	return err
}
