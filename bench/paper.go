package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ivory/internal/buck"
	"ivory/internal/experiments"
	"ivory/internal/sc"
	"ivory/internal/spice"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// paperOp is one op of the validation stream: a figure runner, and for
// Fig4 the simulated span.
type paperOp struct {
	Fig    string  `json:"fig"`
	SpanUS float64 `json:"span_us,omitempty"`
}

// paperBlock is the figure mix: the stream is dealt from it, so every
// seven figure runs hold each op once.
var paperBlock = []paperOp{
	{Fig: "fig4", SpanUS: 1}, {Fig: "fig4", SpanUS: 2}, {Fig: "fig4", SpanUS: 5},
	{Fig: "fig6"}, {Fig: "fig7"}, {Fig: "fig8"}, {Fig: "fig9"},
}

// paperGoldens pins the model-vs-SPICE fidelity of the validation figures
// (relative tolerance goldenTol): an edit to a static model or to the MNA
// kernel that moves any of them fails the run.
var paperGoldens = map[string]float64{
	"fig6.ratio_1mhz":    0.154286919419,
	"fig6.ratio_53mhz":   1.10333640544,
	"fig6.ratio_97mhz":   0.886344423769,
	"fig7.max_err_pp":    1.28879542669,
	"fig8.max_err_pp":    0.979785564255,
	"fig9.cycle_rmse_mv": 5.1795945124,
}

const goldenTol = 1e-6

func checkGolden(goldens map[string]float64, name string, got float64) error {
	want, ok := goldens[name]
	if !ok {
		return fmt.Errorf("no golden %s", name)
	}
	if !(math.Abs(got-want) <= goldenTol*math.Abs(want)) {
		return fmt.Errorf("%s = %.10g, golden %.10g", name, got, want)
	}
	return nil
}

// fig4VoltTol bounds |V_spice − V_model| on every Fig4 row: the fast model
// must track the circuit simulator's settled output.
const fig4VoltTol = 0.015

// paperValidation is the experiments workload's stream of validation
// figure runs.
type paperValidation struct {
	ops     []paperOp
	goldens map[string]float64
	acc     paperAcc
}

type paperAcc struct {
	figTime  map[string]time.Duration
	figOps   map[string]int
	spiceT   time.Duration
	spiceN   float64 // circuit-simulator steps
	modelT   time.Duration
	modelN   float64 // fast-model steps
	speedups []float64
	errMaxPP float64
	measureT time.Duration
	measureN int
}

func newPaperValidation(seed int64, goldens map[string]float64) *paperValidation {
	rng := rand.New(rand.NewSource(seedFor(seed, "experiments.paper")))
	return &paperValidation{
		ops:     dealt(rng, paperBlock, streamLen/4),
		goldens: goldens,
		acc:     paperAcc{figTime: map[string]time.Duration{}, figOps: map[string]int{}},
	}
}

func (w *paperValidation) digest() string { return digestOf(w.ops) }

func (w *paperValidation) warmUp() error {
	for _, op := range paperBlock[2:] {
		if _, err := runPaperOp(op); err != nil {
			return err
		}
	}
	return nil
}

func runPaperOp(op paperOp) (any, error) {
	switch op.Fig {
	case "fig4":
		return experiments.Fig4(op.SpanUS * 1e-6)
	case "fig6":
		return experiments.Fig6()
	case "fig7":
		return experiments.Fig7()
	case "fig8":
		return experiments.Fig8()
	case "fig9":
		return experiments.Fig9()
	}
	return nil, fmt.Errorf("unknown figure %q", op.Fig)
}

func (w *paperValidation) do(i int, tr *tracer) (any, error) {
	op := w.ops[i%len(w.ops)]
	root := tr.root("op." + op.Fig)
	call := root.child("experiments." + op.Fig)
	start := time.Now()
	out, err := runPaperOp(op)
	d := time.Since(start)
	call.end(nil)
	root.end(nil)
	w.acc.figTime[op.Fig] += d
	w.acc.figOps[op.Fig]++
	return out, err
}

func (w *paperValidation) check(i int, out any, traced bool) error {
	op := w.ops[i%len(w.ops)]
	a := &w.acc
	switch r := out.(type) {
	case *experiments.Fig4Result:
		return w.checkFig4(op.SpanUS*1e-6, r)
	case *experiments.Fig6Result:
		if len(r.Tones) != 3 {
			return fmt.Errorf("fig6: %d tones", len(r.Tones))
		}
		for j, name := range []string{"fig6.ratio_1mhz", "fig6.ratio_53mhz", "fig6.ratio_97mhz"} {
			if err := checkGolden(w.goldens, name, r.Tones[j].Ratio); err != nil {
				return err
			}
		}
		return nil
	case *experiments.Fig7Result:
		worst := 0.0
		for _, c := range r.Cases {
			worst = math.Max(worst, c.MaxErr)
		}
		a.errMaxPP = math.Max(a.errMaxPP, worst*100)
		if err := checkGolden(w.goldens, "fig7.max_err_pp", worst*100); err != nil {
			return err
		}
		if traced {
			return w.timeFig7Measurements(r)
		}
		return nil
	case *experiments.Fig8Result:
		worst := 0.0
		for _, c := range r.Cases {
			worst = math.Max(worst, c.MaxErr)
		}
		a.errMaxPP = math.Max(a.errMaxPP, worst*100)
		if err := checkGolden(w.goldens, "fig8.max_err_pp", worst*100); err != nil {
			return err
		}
		if traced {
			return w.timeFig8Measurements(r)
		}
		return nil
	case *experiments.Fig9Result:
		return checkGolden(w.goldens, "fig9.cycle_rmse_mv", r.CycleRMSE*1e3)
	}
	return fmt.Errorf("unexpected output %T", out)
}

// checkFig4 checks the speedup rows and accumulates the per-step cost of
// both simulators: the circuit simulator resolves 64 points per switching
// cycle, the model steps at 2 ns (or one clock tick when shorter).
func (w *paperValidation) checkFig4(spanS float64, r *experiments.Fig4Result) error {
	if len(r.Rows) != 6 {
		return fmt.Errorf("fig4: %d rows", len(r.Rows))
	}
	a := &w.acc
	for _, row := range r.Rows {
		if !(math.Abs(row.VSpice-row.VModel) <= fig4VoltTol) {
			return fmt.Errorf("fig4: at %g Hz the model settles at %.4f V, SPICE at %.4f V", row.FSw, row.VModel, row.VSpice)
		}
		a.spiceT += row.TSpice
		a.spiceN += spanS * 64 * row.FSw
		a.modelT += row.TModel
		a.modelN += spanS / math.Min(2e-9, 1/row.FSw)
		a.speedups = append(a.speedups, row.Speedup)
	}
	return nil
}

// measure times one spice.MeasureEfficiency call and checks it reproduces
// the simulated efficiency the figure reported.
func (w *paperValidation) measure(ckt *spice.Circuit, fsw float64, cycles int, iLoad float64, want float64) error {
	start := time.Now()
	_, _, eff, err := spice.MeasureEfficiency(ckt, fsw, cycles, 48, spice.DC(iLoad))
	w.acc.measureT += time.Since(start)
	w.acc.measureN++
	if err != nil {
		return err
	}
	if !(math.Abs(eff-want) <= goldenTol*math.Abs(want)) {
		return fmt.Errorf("MeasureEfficiency gave %.10g, the figure %.10g", eff, want)
	}
	return nil
}

// fig7Cases restates Fig7's validation cases so the traced run can time
// spice.MeasureEfficiency at each point on its own.
var fig7Cases = []struct {
	p, q                             int
	node                             string
	kind                             tech.CapacitorKind
	vin, cTot, gTot, iLoad, vLo, vHi float64
}{
	{3, 2, "32nm", tech.DeepTrench, 1.8, 30e-9, 120, 0.3, 0.90, 1.17},
	{2, 1, "32nm", tech.DeepTrench, 1.8, 30e-9, 120, 0.3, 0.62, 0.87},
	{2, 1, "22nm", tech.MOSCap, 1.6, 10e-9, 80, 0.15, 0.55, 0.77},
	{3, 1, "22nm", tech.DeepTrench, 1.6, 30e-9, 80, 0.1, 0.38, 0.51},
}

func (w *paperValidation) timeFig7Measurements(r *experiments.Fig7Result) error {
	if len(r.Cases) != len(fig7Cases) {
		return fmt.Errorf("fig7: %d cases", len(r.Cases))
	}
	for ci, fc := range fig7Cases {
		top, err := topology.SeriesParallel(fc.p, fc.q)
		if err != nil {
			return err
		}
		an, err := top.Analyze()
		if err != nil {
			return err
		}
		pts := r.Cases[ci].Points
		j := 0
		for k := 0; k < 7; k++ {
			target := fc.vLo + (fc.vHi-fc.vLo)*float64(k)/6
			d, err := sc.New(sc.Config{
				Analysis: an, Node: tech.MustLookup(fc.node), CapKind: fc.kind,
				VIn: fc.vin, VOut: target, CTotal: fc.cTot, GTotal: fc.gTot, CDecap: fc.cTot / 4,
				FSwMax: 2e9,
			})
			if err != nil {
				continue
			}
			m, err := d.Evaluate(fc.iLoad)
			if err != nil {
				continue
			}
			if j >= len(pts) {
				return errors.New("fig7: more functional points than the figure reported")
			}
			caps, rons := d.ElementValues()
			ckt, err := spice.BuildSC(top, an, caps, rons, spice.SCOptions{
				VIn: fc.vin, FSw: m.FSw, CLoad: 20 * fc.cTot, ILoad: fc.iLoad, VOutIC: m.VOut,
			})
			if err != nil {
				return err
			}
			if err := w.measure(ckt, m.FSw, 60, fc.iLoad, pts[j].EffSim); err != nil {
				return fmt.Errorf("fig7 %s point %d: %w", r.Cases[ci].Name, j, err)
			}
			j++
		}
	}
	return nil
}

// fig8Cases restates Fig8's validation cases, like fig7Cases.
var fig8Cases = []struct {
	node              string
	vin, vout, l, fsw float64
	phases            int
	loads             []float64
}{
	{"45nm", 1.8, 0.9, 5e-9, 100e6, 2, []float64{1, 3, 4}},
	{"22nm", 1.5, 0.8, 4e-9, 150e6, 1, []float64{1, 2}},
}

func (w *paperValidation) timeFig8Measurements(r *experiments.Fig8Result) error {
	if len(r.Cases) != len(fig8Cases) {
		return fmt.Errorf("fig8: %d cases", len(r.Cases))
	}
	for ci, fc := range fig8Cases {
		node := tech.MustLookup(fc.node)
		ind, err := node.Inductor(tech.IntegratedThinFilm)
		if err != nil {
			return err
		}
		pts := r.Cases[ci].Points
		j := 0
		for _, iLoad := range fc.loads {
			bd, err := buck.New(buck.Config{
				Node: node, Inductor: tech.IntegratedThinFilm, OutCap: tech.DeepTrench,
				VIn: fc.vin, VOut: fc.vout, L: fc.l, COut: 200e-9, FSw: fc.fsw,
				GHigh: 5, GLow: 8, Interleave: fc.phases,
			})
			if err != nil {
				return err
			}
			if bd, err = bd.OptimizeConductances(iLoad); err != nil {
				return err
			}
			if _, err := bd.Evaluate(iLoad); err != nil {
				continue
			}
			if j >= len(pts) {
				return errors.New("fig8: more points than the figure reported")
			}
			cfg := bd.Config()
			iPh := iLoad / float64(fc.phases)
			ckt, err := spice.BuildBuck(spice.BuckOptions{
				VIn: fc.vin, Duty: bd.Duty(iLoad), FSw: fc.fsw,
				L: ind.LEff(cfg.L, fc.fsw), RL: ind.Resistance(cfg.L, fc.fsw),
				COut:  cfg.COut / float64(fc.phases),
				RHigh: 1 / cfg.GHigh, RLow: 1 / cfg.GLow,
				ILoad: iPh,
			})
			if err != nil {
				return err
			}
			if err := w.measure(ckt, fc.fsw, 120, iPh, pts[j].EffSim); err != nil {
				return fmt.Errorf("fig8 %s point %d: %w", r.Cases[ci].Name, j, err)
			}
			j++
		}
	}
	return nil
}

func (w *paperValidation) layers() map[string]float64 {
	a := &w.acc
	m := map[string]float64{
		"spice.tran_ns_per_step":       div(float64(a.spiceT), a.spiceN),
		"dynamic.model_ns_per_step":    div(float64(a.modelT), a.modelN),
		"spice.measure_ms":             div(millis(a.measureT), float64(a.measureN)),
		"experiments.speedup_x":        median(a.speedups),
		"experiments.model_err_max_pp": a.errMaxPP,
	}
	for fig, n := range a.figOps {
		m["experiments.fig_ms."+fig] = div(millis(a.figTime[fig]), float64(n))
	}
	return m
}
