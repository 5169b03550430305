package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ivory/internal/core"
	"ivory/internal/numeric"
	"ivory/internal/parallel"
	"ivory/internal/pds"
	"ivory/internal/report"
	"ivory/internal/sc"
	"ivory/internal/workload"
)

// noiseConfigs are the four PDS configurations of the case study, as IVR
// counts (pds.Delivery.IVRs; 0 = off-chip VRM).
var noiseConfigs = []int{0, 1, 2, 4}

// Fig10Cell is one benchmark x configuration box-plot entry.
type Fig10Cell struct {
	Benchmark string
	Config    string
	// Stats summarizes the core-voltage distribution (box plot input).
	Stats numeric.Summary
	// NoiseVpp is the voltage-noise range.
	NoiseVpp float64
	// WorstDroop is VNominal - min(V).
	WorstDroop float64
}

// Fig10Result reproduces the paper's Fig. 10: voltage-noise statistics of
// every benchmark under every VR configuration, and (reusing the same
// simulations) the paper's Fig. 11 waveforms for CFD.
type Fig10Result struct {
	Cells []Fig10Cell
	// CFDTraces holds the Fig. 11 waveforms: config name -> core voltage.
	CFDTimes  []float64
	CFDTraces map[string][]float64
	// NoiseByConfig aggregates the worst-case noise range per config.
	NoiseByConfig map[string]float64
	// DroopByConfig aggregates the worst droop per config (the guardband).
	DroopByConfig map[string]float64
	// Configs records the IVR counts the run covered (the case-study set
	// {0,1,2,4} unless TransientOptions.Configs narrowed it).
	Configs []int
	// RunStats is the engine telemetry of the run that produced the result.
	RunStats TransientStats
}

// caseDesign is the memoized case-study IVR design. Only a successful
// search is stored, so a cancelled or failed one leaves it empty for the
// next caller (a sync.Once would keep the cancellation forever). It is never
// invalidated: the case-study inputs are constants.
var caseDesign atomic.Pointer[sc.Design]

// caseIVRDesign returns the process-wide case-study IVR design, searching
// for it on first use. Concurrent cold callers each search under their own
// context; the search is deterministic, so whichever result is stored is
// identical. The context is checked even when the memo is warm, so a
// cancelled caller gets its context error rather than a design. The
// returned design is shared: sc.Design is read-only after construction.
func caseIVRDesign(ctx context.Context) (*sc.Design, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d := caseDesign.Load(); d != nil {
		return d, nil
	}
	d, err := searchCaseIVRDesign(ctx)
	if err != nil {
		return nil, err
	}
	caseDesign.CompareAndSwap(nil, d)
	return caseDesign.Load(), nil
}

// searchCaseIVRDesign builds the chip-level SC converter the static
// exploration selects for the case study (best SC candidate of Table 2),
// re-sized to totals and with generous interleaving for the dynamic
// analysis. It always searches; caseIVRDesign is the memoized entry point.
func searchCaseIVRDesign(ctx context.Context) (*sc.Design, error) {
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	spec := cs.Spec
	spec.Context = ctx
	res, err := core.Explore(spec)
	if err != nil {
		return nil, err
	}
	cand, ok := res.BestOfKind(core.KindSC)
	if !ok {
		return nil, fmt.Errorf("experiments: no SC design for the case study")
	}
	cfg := cand.SC.Config()
	// The dynamic analysis regulates at the core's nominal voltage.
	cfg.VOut = cs.System.VNominal
	cfg.Interleave = 32
	cfg.FSwMax = 500e6
	return sc.New(cfg)
}

// fig10Cell names one benchmark × configuration simulation.
type fig10Cell struct {
	bench string
	nIVR  int
}

// fig10Cells enumerates the benchmark × configuration grid in the fixed
// order the serial loop used; the parallel merge walks the same order.
// opt.Benchmarks/opt.Configs narrow the grid for scoped (serving) runs;
// the defaults reproduce the full case study. Selections are validated
// here so a bad request fails before any simulation burns a worker.
func fig10Cells(opt TransientOptions) ([]fig10Cell, []int, error) {
	names := opt.Benchmarks
	if len(names) == 0 {
		names = workload.Names()
	} else {
		for _, b := range names {
			if _, err := workload.Get(b); err != nil {
				return nil, nil, err
			}
		}
	}
	configs := opt.Configs
	if len(configs) == 0 {
		configs = noiseConfigs
	} else {
		for _, n := range configs {
			if n < 0 {
				return nil, nil, fmt.Errorf("experiments: negative IVR count %d", n)
			}
		}
	}
	cells := make([]fig10Cell, 0, len(names)*len(configs))
	for _, b := range names {
		for _, n := range configs {
			cells = append(cells, fig10Cell{bench: b, nIVR: n})
		}
	}
	if len(cells) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty benchmark x configuration grid")
	}
	return cells, configs, nil
}

// Fig10Run runs the workload-driven noise analysis. ctx cancels the
// case-study exploration and every in-flight simulation cell (the poll
// sits inside the transient integration loops, so cancellation does not
// wait for a cell to finish). It is the engine entry point: the
// benchmark × configuration cells fan out over opt.Workers goroutines,
// each simulating independently into pooled scratch, and the merge walks
// the enumeration order — so the result is bit-identical to the serial
// path for every worker count. Only CFD cells retain their waveforms
// (Fig. 11); the rest carry statistics alone.
func Fig10Run(ctx context.Context, opt TransientOptions) (*Fig10Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	T, dt := opt.T, opt.Dt
	if T <= 0 {
		T = DefaultT
	}
	if dt <= 0 {
		dt = DefaultDt
	}
	cells, configs, err := fig10Cells(opt)
	if err != nil {
		return nil, err
	}
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	exploreStart := time.Now()
	design, err := caseIVRDesign(ctx)
	if err != nil {
		return nil, err
	}
	tracker := newTransientTracker(len(cells), time.Since(exploreStart), opt.Progress)
	results := make([]*pds.NoiseResult, len(cells))
	if err := parallel.ForContext(ctx, len(cells), opt.Workers, func(ctx context.Context, i int) error {
		c := cells[i]
		bench, err := workload.Get(c.bench)
		if err != nil {
			return err
		}
		dl := pds.Delivery{IVRs: c.nIVR, SC: design}
		nr, err := cs.System.Simulate(ctx, dl, bench, T, dt, pds.SimOptions{KeepTrace: c.bench == "CFD"})
		if err != nil {
			return fmt.Errorf("experiments: %s / %s: %w", c.bench, dl.Name(), err)
		}
		results[i] = nr
		tracker.cellDone()
		return nil
	}); err != nil {
		return nil, err
	}
	res := &Fig10Result{
		CFDTraces:     map[string][]float64{},
		NoiseByConfig: map[string]float64{},
		DroopByConfig: map[string]float64{},
		Configs:       configs,
	}
	for i, nr := range results {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := cells[i]
		res.Cells = append(res.Cells, Fig10Cell{
			Benchmark:  c.bench,
			Config:     nr.Config,
			Stats:      nr.Stats(),
			NoiseVpp:   nr.NoiseVpp,
			WorstDroop: nr.WorstDroop,
		})
		if nr.NoiseVpp > res.NoiseByConfig[nr.Config] {
			res.NoiseByConfig[nr.Config] = nr.NoiseVpp
		}
		if nr.WorstDroop > res.DroopByConfig[nr.Config] {
			res.DroopByConfig[nr.Config] = nr.WorstDroop
		}
		if c.bench == "CFD" {
			if res.CFDTimes == nil {
				res.CFDTimes = nr.Times
			}
			res.CFDTraces[nr.Config] = nr.VCore
		}
	}
	res.RunStats = tracker.finalize()
	return res, nil
}

// fig10Table describes the noise cells for Fig 10's box-plot table and
// fig10.csv, which order the quartiles differently.
var fig10Table = report.Table[Fig10Cell]{Name: "fig10", Columns: []report.Column[Fig10Cell]{
	{Text: "benchmark", CSV: "benchmark", Value: func(c Fig10Cell) any { return c.Benchmark }},
	{Text: "config", CSV: "config", Value: func(c Fig10Cell) any { return c.Config }},
	{Text: "median", Value: func(c Fig10Cell) any { return c.Stats.Median }, Verb: "%.4f"},
	{Text: "Q1", Value: func(c Fig10Cell) any { return c.Stats.Q1 }, Verb: "%.4f"},
	{Text: "Q3", Value: func(c Fig10Cell) any { return c.Stats.Q3 }, Verb: "%.4f"},
	{Text: "min", Value: func(c Fig10Cell) any { return c.Stats.Min }, Verb: "%.4f"},
	{Text: "max", Value: func(c Fig10Cell) any { return c.Stats.Max }, Verb: "%.4f"},
	{Text: "Vpp(mV)", Value: func(c Fig10Cell) any { return c.NoiseVpp }, Scale: 1e3, Verb: "%.1f"},
	{CSV: "min", Value: func(c Fig10Cell) any { return c.Stats.Min }},
	{CSV: "q1", Value: func(c Fig10Cell) any { return c.Stats.Q1 }},
	{CSV: "median", Value: func(c Fig10Cell) any { return c.Stats.Median }},
	{CSV: "q3", Value: func(c Fig10Cell) any { return c.Stats.Q3 }},
	{CSV: "max", Value: func(c Fig10Cell) any { return c.Stats.Max }},
	{CSV: "vpp", Value: func(c Fig10Cell) any { return c.NoiseVpp }},
	{CSV: "droop", Value: func(c Fig10Cell) any { return c.WorstDroop }},
}}

// Format renders the box-plot table (Fig. 10).
func (r *Fig10Result) Format() string {
	out := "Fig. 10 — voltage-noise statistics per benchmark and VR configuration\n"
	out += fig10Table.Text(r.Cells)
	out += "\nWorst-case noise range per configuration:\n"
	for _, n := range r.Configs {
		name := pds.Delivery{IVRs: n}.Name()
		out += fmt.Sprintf("  %-22s %.1f mV (worst droop %.1f mV)\n",
			name, r.NoiseByConfig[name]*1e3, r.DroopByConfig[name]*1e3)
	}
	return out
}

// WriteCSV emits fig10.csv (box stats).
func (r *Fig10Result) WriteCSV(w *report.Writer) error { return fig10Table.WriteCSV(w, r.Cells) }

// fig11Configs returns the names of the run's configurations, in order.
func (r *Fig10Result) fig11Configs() []string {
	var configs []string
	for _, n := range r.Configs {
		configs = append(configs, pds.Delivery{IVRs: n}.Name())
	}
	return configs
}

// fig11Table describes the CFD waveforms, indexed by sample: time plus one
// column per configuration, for Fig 11's excerpt and fig11.csv.
func (r *Fig10Result) fig11Table(configs []string) *report.Table[int] {
	t := &report.Table[int]{Name: "fig11", Columns: []report.Column[int]{
		{Text: "t(us)", CSV: "t_s", Value: func(k int) any { return r.CFDTimes[k] }, Scale: 1e6, Verb: "%.2f"},
	}}
	for _, cfg := range configs {
		tr := r.CFDTraces[cfg]
		t.Columns = append(t.Columns, report.Column[int]{Text: cfg, CSV: cfg, Value: func(k int) any { return tr[k] }, Verb: "%.4f"})
	}
	return t
}

// FormatFig11 renders the CFD waveform comparison (Fig. 11).
func (r *Fig10Result) FormatFig11() string {
	out := "Fig. 11 — CFD supply-voltage traces per VR configuration\n"
	configs := r.fig11Configs()
	out += "Noise ranges: "
	for i, cfg := range configs {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %.0f mV", cfg, numeric.PeakToPeak(r.CFDTraces[cfg])*1e3)
	}
	out += "\n"
	return out + r.fig11Table(configs).Text(excerpt(len(r.CFDTimes), 16))
}

// writeFig11CSV emits fig11.csv: the CFD waveforms at every sample all of
// the run's configurations reach.
func (r *Fig10Result) writeFig11CSV(w *report.Writer) error {
	configs := r.fig11Configs()
	n := len(r.CFDTimes)
	for _, cfg := range configs {
		n = min(n, len(r.CFDTraces[cfg]))
	}
	return r.fig11Table(configs).WriteCSV(w, upTo(n))
}
