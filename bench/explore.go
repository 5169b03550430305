package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ivory/internal/core"
	"ivory/internal/server"
)

// streamLen is how many inputs a closed-loop workload generates; op
// indices wrap around it, which no run of up to a minute reaches.
const streamLen = 20000

// exploreSweep is the explore-sweep workload: distinct specs through the
// in-process exploration engine with one worker per CPU.
type exploreSweep struct {
	dtos  []server.SpecDTO
	specs []core.Spec // normalized
	warm  []core.Spec
	acc   exploreAcc
}

// exploreAcc accumulates the per-layer measurements.
type exploreAcc struct {
	ops, tracedOps                   int
	setup, search, rank, track, eval time.Duration
	kindEval                         [3]time.Duration
	batches, tracedEvaluated         int
	jobs, evaluated, accepted        int
	pruned                           int
	kindAccepted, kindEvaluated      [3]int
	topoHits, topoMisses             int64
	cross, crossMatch                int
}

func normalized(d server.SpecDTO) (core.Spec, error) {
	s, err := d.ToSpec()
	if err != nil {
		return core.Spec{}, err
	}
	return s.Normalized()
}

func newExploreSweep(seed int64) (*exploreSweep, error) {
	w := &exploreSweep{dtos: exploreSpecs(seed, streamLen)}
	w.specs = make([]core.Spec, len(w.dtos))
	for i, d := range w.dtos {
		s, err := normalized(d)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		w.specs[i] = s
	}
	for _, d := range warmSpecs() {
		s, err := normalized(d)
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, s)
	}
	return w, nil
}

func (w *exploreSweep) digest() string { return digestOf(w.dtos) }

func (w *exploreSweep) warmUp() error {
	for _, s := range w.warm {
		if _, err := core.Explore(s); err != nil {
			return err
		}
	}
	return nil
}

func (w *exploreSweep) do(i int, tr *tracer) (any, error) {
	spec := w.specs[i%len(w.specs)]
	if tr == nil {
		return core.Explore(spec)
	}
	root := tr.root("op.explore")
	defer root.end(nil)
	return w.exploreTraced(spec, root)
}

// kindSpans names the per-family evaluation spans, indexed by core.Kind.
var kindSpans = [3]string{"sc.eval", "buck.eval", "ldo.eval"}

// exploreTraced runs core.ExploreWith with an evaluator that times the
// engine from outside: each batch is split by converter family and
// evaluated through core.EvalRefs, and the gaps between evaluator calls
// are the engine's own set-up, search and ranking time.
func (w *exploreSweep) exploreTraced(spec core.Spec, root *active) (*core.Result, error) {
	a := &w.acc
	start := time.Now()
	var first, last time.Time
	batches, evalTime := 0, time.Duration(0)
	eval := func(ctx context.Context, refs []core.ConfigRef, done func(int, *core.RefOutcome)) ([]core.RefOutcome, error) {
		callStart := time.Now()
		if batches == 0 {
			first = callStart
		} else {
			a.search += callStart.Sub(last)
		}
		batches++
		bs := root.child("core.batch")
		outs := make([]core.RefOutcome, len(refs))
		var ferr error
		for k := core.KindSC; k <= core.KindLDO; k++ {
			var idx []int
			var sub []core.ConfigRef
			for i, r := range refs {
				if r.Kind == k {
					idx = append(idx, i)
					sub = append(sub, r)
				}
			}
			if len(sub) == 0 {
				continue
			}
			sp := spec
			sp.Context = ctx
			ks := bs.child(kindSpans[k])
			t0 := time.Now()
			rr, err := core.EvalRefs(sp, sub)
			d := time.Since(t0)
			a.kindEval[k] += d
			evalTime += d
			if err != nil {
				ks.end(nil)
				ferr = err
				break
			}
			ks.end(map[string]int64{"refs": int64(len(sub)), "accepted": int64(rr.Stats.Accepted()), "rejected": int64(rr.Stats.Rejected())})
			for j, i := range idx {
				outs[i] = rr.Outcomes[j]
			}
		}
		t1 := time.Now()
		for i := range outs {
			done(i, &outs[i])
		}
		a.track += time.Since(t1)
		bs.end(map[string]int64{"refs": int64(len(refs))})
		last = time.Now()
		return outs, ferr
	}
	res, err := core.ExploreWith(spec, eval)
	if err != nil {
		return nil, err
	}
	a.tracedOps++
	a.setup += first.Sub(start)
	a.rank += time.Since(last)
	a.eval += evalTime
	a.batches += batches
	a.tracedEvaluated += res.Stats.Evaluated()
	return res, nil
}

func (w *exploreSweep) check(i int, out any, _ bool) error {
	res := out.(*core.Result)
	spec := w.specs[i%len(w.specs)]
	if err := checkExploreResult(res, spec); err != nil {
		return err
	}
	a := &w.acc
	st := res.Stats
	a.ops++
	a.jobs += st.Jobs
	a.evaluated += st.Evaluated()
	a.accepted += st.Accepted()
	a.pruned += st.Pruned()
	for k := range st.PerKind {
		a.kindAccepted[k] += st.PerKind[k].Accepted
		a.kindEvaluated[k] += st.PerKind[k].Evaluated()
	}
	a.topoHits += st.TopoCacheHits
	a.topoMisses += st.TopoCacheMisses
	if i%crossEvery != 0 {
		return nil
	}
	match, err := crossCheckSearch(spec, res)
	a.cross++
	if match {
		a.crossMatch++
	}
	return err
}

func sameCandidate(a, b core.Candidate) bool {
	return a.Kind == b.Kind && a.Label == b.Label && a.Metrics == b.Metrics
}

// checkExploreResult holds the invariants of every exploration: the best
// candidate heads a list ranked by efficiency, every efficiency lies in
// (0, 1], every design fits the area budget, and every job completed.
func checkExploreResult(res *core.Result, spec core.Spec) error {
	if len(res.Candidates) == 0 {
		return errors.New("no candidates")
	}
	if !sameCandidate(res.Best, res.Candidates[0]) {
		return errors.New("best is not candidates[0]")
	}
	if res.Stats.Done != res.Stats.Jobs {
		return fmt.Errorf("%d of %d jobs done", res.Stats.Done, res.Stats.Jobs)
	}
	for j, c := range res.Candidates {
		m := c.Metrics
		if !(m.Efficiency > 0 && m.Efficiency <= 1) {
			return fmt.Errorf("candidate %d efficiency %g outside (0, 1]", j, m.Efficiency)
		}
		if m.AreaDie > spec.AreaMax {
			return fmt.Errorf("candidate %d area %g m2 over the %g m2 budget", j, m.AreaDie, spec.AreaMax)
		}
		if j > 0 && m.Efficiency > res.Candidates[j-1].Metrics.Efficiency {
			return fmt.Errorf("candidate %d outranks candidate %d", j, j-1)
		}
	}
	return nil
}

// crossCheckSearch explores the spec again with the other search strategy
// and compares winners. The adaptive search sizes a subset of the lattice
// the exhaustive sweep sizes, so its winner must be one of the exhaustive
// candidates, bit for bit, and cannot beat the exhaustive winner. It
// usually is that winner; match reports whether it was.
func crossCheckSearch(spec core.Spec, res *core.Result) (match bool, err error) {
	other := spec
	other.Search = core.SearchAdaptive
	if spec.Search == core.SearchAdaptive {
		other.Search = core.SearchExhaustive
	}
	ref, err := core.Explore(other)
	if err != nil {
		return false, fmt.Errorf("cross-check: %w", err)
	}
	adaptive, exhaustive := res, ref
	if spec.Search != core.SearchAdaptive {
		adaptive, exhaustive = ref, res
	}
	if sameCandidate(adaptive.Best, exhaustive.Best) {
		return true, nil
	}
	if adaptive.Best.Metrics.Efficiency > exhaustive.Best.Metrics.Efficiency {
		return false, fmt.Errorf("adaptive winner %q beats the exhaustive winner %q", adaptive.Best.Label, exhaustive.Best.Label)
	}
	for _, c := range exhaustive.Candidates {
		if sameCandidate(c, adaptive.Best) {
			return false, nil
		}
	}
	return false, fmt.Errorf("adaptive winner %q is not an exhaustive candidate", adaptive.Best.Label)
}

func (w *exploreSweep) layers() map[string]float64 {
	a := &w.acc
	traced, ops := float64(a.tracedOps), float64(a.ops)
	m := map[string]float64{
		"core.setup_ms":                   div(millis(a.setup), traced),
		"core.search_ms":                  div(millis(a.search), traced),
		"core.rank_ms":                    div(millis(a.rank), traced),
		"core.track_ms":                   div(millis(a.track), traced),
		"core.eval_ms":                    div(millis(a.eval), traced),
		"core.candidates_per_s":           div(float64(a.tracedEvaluated), a.eval.Seconds()),
		"core.refs_per_op":                div(float64(a.jobs), ops),
		"core.batches_per_op":             div(float64(a.batches), traced),
		"core.evaluated_per_op":           div(float64(a.evaluated), ops),
		"core.pruned_per_op":              div(float64(a.pruned), ops),
		"core.accept_ratio":               div(float64(a.accepted), float64(a.evaluated)),
		"core.adaptive_winner_match_frac": div(float64(a.crossMatch), float64(a.cross)),
		"topology.cache_hit_ratio":        div(float64(a.topoHits), float64(a.topoHits+a.topoMisses)),
	}
	for k, fam := range []string{"sc", "buck", "ldo"} {
		m[fam+".eval_ms"] = div(millis(a.kindEval[k]), traced)
		m[fam+".accept_ratio"] = div(float64(a.kindAccepted[k]), float64(a.kindEvaluated[k]))
	}
	return m
}
