package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"ivory/internal/experiments"
	"ivory/internal/server"
	"ivory/internal/soc"
	"ivory/internal/workload"
)

// fig10Block deals the transient ops: seven in every ten are scoped Fig10
// runs, the rest hybrid SoC sweeps.
var fig10Block = shares(7, 10)

// transientOp is one generated transient op in wire form; exactly
// one field is set. The engine inputs are derived through the same
// conversions ivoryd applies.
type transientOp struct {
	Fig10  *server.TransientRequest `json:"fig10,omitempty"`
	Hybrid *server.HybridRequest    `json:"hybrid,omitempty"`

	opts  experiments.TransientOptions
	sweep soc.SweepSpec
}

func (op *transientOp) resolve() error {
	if op.Fig10 != nil {
		op.opts = op.Fig10.Options(0)
		return nil
	}
	var err error
	op.sweep, err = op.Hybrid.ToSpec()
	return err
}

func drawTransientOp(rng *rand.Rand, fig10 bool) (transientOp, error) {
	var op transientOp
	if fig10 {
		req := drawTransient(rng, sweepShape)
		op.Fig10 = &req
	} else {
		req := drawHybrid(rng)
		op.Hybrid = &req
	}
	return op, op.resolve()
}

// transientSweep is the experiments workload's stream of scoped Fig10
// runs and hybrid sweeps.
type transientSweep struct {
	ops  []transientOp
	warm []transientOp
	acc  transientAcc
}

// traceKey is one pds trace-memo entry a Fig10 op touches.
type traceKey struct {
	bench string
	t, dt float64
}

type transientAcc struct {
	fig10Ops, fig10Cells             int
	exploreWall, simWall             time.Duration
	traceHits, traceMisses           int64
	keys                             map[traceKey]bool
	sweeps                           int
	sweepWall                        time.Duration
	assignments, ranked              int
	sweepCells, sweepCellsInfeasible int
}

func newTransientSweep(seed int64) (*transientSweep, error) {
	w := &transientSweep{acc: transientAcc{keys: map[traceKey]bool{}}}
	rng := rand.New(rand.NewSource(seedFor(seed, "experiments.transient")))
	for i, fig10 := range dealt(rng, fig10Block, streamLen/2) {
		op, err := drawTransientOp(rng, fig10)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		w.ops = append(w.ops, op)
	}
	fig, hyb := warmTransient, warmHybrid
	w.warm = []transientOp{{Fig10: &fig}, {Hybrid: &hyb}}
	for i := range w.warm {
		if err := w.warm[i].resolve(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *transientSweep) digest() string { return digestOf(w.ops) }

func (w *transientSweep) warmUp() error {
	for i := range w.warm {
		if _, err := runTransientOp(&w.warm[i], nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *transientSweep) do(i int, tr *tracer) (any, error) {
	return runTransientOp(&w.ops[i%len(w.ops)], tr)
}

func runTransientOp(op *transientOp, tr *tracer) (any, error) {
	if op.Fig10 != nil {
		root := tr.root("op.fig10")
		call := root.child("experiments.Fig10Run")
		start := time.Now()
		res, err := experiments.Fig10Run(context.Background(), op.opts)
		if err == nil {
			// The run's own stage split: design search first, then cells.
			st := res.RunStats
			call.addChild("experiments.explore", start, start.Add(st.ExploreWall), nil)
			call.addChild("pds.cells", start.Add(st.ExploreWall), start.Add(st.Wall),
				map[string]int64{"cells": int64(st.Done), "trace_hits": st.TraceCacheHits, "trace_misses": st.TraceCacheMisses})
		}
		call.end(nil)
		root.end(nil)
		return res, err
	}
	root := tr.root("op.hybrid")
	call := root.child("soc.Sweep")
	res, err := soc.Sweep(op.sweep)
	if err == nil {
		call.end(map[string]int64{"cells": int64(res.Stats.Cells), "assignments": int64(res.Stats.Assignments)})
	} else {
		call.end(nil)
	}
	root.end(nil)
	return res, err
}

func (w *transientSweep) check(i int, out any, _ bool) error {
	op := &w.ops[i%len(w.ops)]
	if op.Fig10 != nil {
		res := out.(*experiments.Fig10Result)
		if err := checkFig10(op.Fig10, res); err != nil {
			return err
		}
		w.noteFig10(op.Fig10, res)
		if i%crossEvery != 0 {
			return nil
		}
		// The cell fan-out must be bit-identical to the serial path.
		serial := op.opts
		serial.Workers = 1
		ref, err := experiments.Fig10Run(context.Background(), serial)
		if err != nil {
			return fmt.Errorf("serial cross-check: %w", err)
		}
		if !reflect.DeepEqual(ref.Cells, res.Cells) || !reflect.DeepEqual(ref.NoiseByConfig, res.NoiseByConfig) ||
			!reflect.DeepEqual(ref.DroopByConfig, res.DroopByConfig) {
			return errors.New("Fig10Run with Workers=1 differs from the default worker count")
		}
		return nil
	}
	res := out.(*soc.SweepResult)
	if err := checkSweep(op.Hybrid.AreaBudgetMM2, res); err != nil {
		return err
	}
	a := &w.acc
	a.sweeps++
	a.sweepWall += res.Stats.Wall
	a.assignments += res.Stats.Assignments
	a.ranked += res.Stats.Ranked
	a.sweepCells += res.Stats.Cells
	a.sweepCellsInfeasible += res.Stats.CellsInfeasible
	return nil
}

func checkFig10(req *server.TransientRequest, res *experiments.Fig10Result) error {
	st := res.RunStats
	want := len(req.Benchmarks) * len(req.Configs)
	if st.Cells != want || st.Done != st.Cells || len(res.Cells) != want {
		return fmt.Errorf("fig10: %d/%d cells done, %d returned, want %d", st.Done, st.Cells, len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if !(c.NoiseVpp >= 0) {
			return fmt.Errorf("fig10: %s / %s noise %g", c.Benchmark, c.Config, c.NoiseVpp)
		}
	}
	return nil
}

// checkSweep holds the hybrid sweep invariants: every assignment is ranked
// or rejected exactly once, the ranked list is sorted by efficiency within
// (0, 1], and every ranked assignment fits the budget.
func checkSweep(budgetMM2 float64, res *soc.SweepResult) error {
	st := res.Stats
	if st.Ranked+st.RejectedInfeasible+st.RejectedArea != st.Assignments {
		return fmt.Errorf("hybrid: %d ranked + %d infeasible + %d over budget != %d assignments",
			st.Ranked, st.RejectedInfeasible, st.RejectedArea, st.Assignments)
	}
	if st.Cells != len(res.Cells) || len(res.Candidates) == 0 {
		return fmt.Errorf("hybrid: %d cells reported, %d returned, %d candidates", st.Cells, len(res.Cells), len(res.Candidates))
	}
	for j, c := range res.Candidates {
		if !(c.Efficiency > 0 && c.Efficiency <= 1) {
			return fmt.Errorf("hybrid: candidate %d efficiency %g", j, c.Efficiency)
		}
		if budgetMM2 > 0 && c.AreaM2 > budgetMM2*1e-6 {
			return fmt.Errorf("hybrid: candidate %d area %g m2 over the budget", j, c.AreaM2)
		}
		if j > 0 && c.Efficiency > res.Candidates[j-1].Efficiency {
			return fmt.Errorf("hybrid: candidate %d outranks candidate %d", j, j-1)
		}
	}
	return nil
}

func (w *transientSweep) noteFig10(req *server.TransientRequest, res *experiments.Fig10Result) {
	a := &w.acc
	st := res.RunStats
	a.fig10Ops++
	a.fig10Cells += st.Done
	a.exploreWall += st.ExploreWall
	a.simWall += st.SimWall
	a.traceHits += st.TraceCacheHits
	a.traceMisses += st.TraceCacheMisses
	for _, b := range req.Benchmarks {
		a.keys[traceKey{b, req.TUS * 1e-6, req.DtNS * 1e-9}] = true
	}
}

// traceSynthMS times the core-current synthesis of one trace-memo entry
// standalone: every core's power trace and its current conversion.
func traceSynthMS(cs *experiments.CaseSystem, k traceKey) float64 {
	b, err := workload.Get(k.bench)
	if err != nil {
		return 0 // keys come from workload.Names()
	}
	sys := cs.System
	n := int(k.t / k.dt)
	var p, cur []float64
	start := time.Now()
	for c := 0; c < sys.Cores; c++ {
		p = b.PowerTraceInto(p, sys.TDPPerCore, k.dt, n, sys.Seed+int64(c))
		cur = sys.Load.CurrentTraceInto(cur, p, sys.VNominal)
	}
	return millis(time.Since(start))
}

func (w *transientSweep) layers() map[string]float64 {
	a := &w.acc
	figs := float64(a.fig10Ops)
	m := map[string]float64{
		"experiments.explore_wall_ms": div(millis(a.exploreWall), figs),
		"pds.sim_wall_ms":             div(millis(a.simWall), figs),
		"pds.sim_ms_per_cell":         div(millis(a.simWall), float64(a.fig10Cells)),
		"pds.cells_per_s":             div(float64(a.fig10Cells), a.simWall.Seconds()),
		"pds.trace_cache_hit_ratio":   div(float64(a.traceHits), float64(a.traceHits+a.traceMisses)),
		"soc.sweep_ms":                div(millis(a.sweepWall), float64(a.sweeps)),
		"soc.assignments_per_s":       div(float64(a.assignments), a.sweepWall.Seconds()),
		"soc.ranked_frac":             div(float64(a.ranked), float64(a.assignments)),
		"soc.cells_infeasible_frac":   div(float64(a.sweepCellsInfeasible), float64(a.sweepCells)),
	}
	// Synthesis cost: the mean standalone cost of a memo entry times the
	// misses the runs took, per Fig10 op.
	if cs, err := experiments.NewCaseSystem(); err == nil && len(a.keys) > 0 {
		var total float64
		for k := range a.keys {
			total += traceSynthMS(cs, k)
		}
		m["workload.trace_synth_ms"] = div(total/float64(len(a.keys))*float64(a.traceMisses), figs)
	}
	return m
}
