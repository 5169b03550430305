package experiments

import (
	"context"
	"fmt"

	"ivory/internal/buck"
	"ivory/internal/core"
	"ivory/internal/dynamic"
	"ivory/internal/numeric"
	"ivory/internal/parallel"
	"ivory/internal/report"
	"ivory/internal/sc"
	"ivory/internal/tech"
)

// AblationResult quantifies the design choices DESIGN.md calls out: each
// row disables one modeling/optimization feature and reports the resulting
// efficiency or accuracy delta at the case-study operating point.
type AblationResult struct {
	Rows []AblationRow
}

// AblationRow is one ablation outcome.
type AblationRow struct {
	// Name labels the ablation.
	Name string
	// Baseline and Ablated are the metric values with the feature on/off.
	Baseline, Ablated float64
	// Unit names the metric ("efficiency %", "ripple mV", ...).
	Unit string
	// Note explains what the delta means.
	Note string
}

// AblationsRun runs all four studies. It runs the baseline exploration
// (the dominant cost, under ctx) serially (studies 1-2 need its best SC
// candidate), then fans the four independent studies out over opt.Workers
// into per-index row slots, so the table order matches the serial path for
// every worker count.
func AblationsRun(ctx context.Context, opt TransientOptions) (*AblationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	spec := cs.Spec
	spec.VOut = 0.9
	spec.Context = ctx

	base, err := core.Explore(spec)
	if err != nil {
		return nil, err
	}
	cand, ok := base.BestOfKind(core.KindSC)
	if !ok {
		return nil, fmt.Errorf("experiments: no SC candidate for ablations")
	}
	cfg := cand.SC.Config()
	mBase, err := cand.SC.Evaluate(spec.IMax)
	if err != nil {
		return nil, err
	}

	studies := []func(context.Context) (AblationRow, error){
		// 1) Cost-aware vs uniform switch-conductance allocation: the 3:1 SC
		//    mixes core and I/O devices, so the split matters.
		func(context.Context) (AblationRow, error) {
			uniformCfg := cfg
			uniformCfg.UniformSwitchAllocation = true
			uniform, err := sc.New(uniformCfg)
			if err != nil {
				return AblationRow{}, err
			}
			mUni, err := uniform.Evaluate(spec.IMax)
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				Name:     "cost-aware G allocation",
				Baseline: mBase.Efficiency * 100,
				Ablated:  mUni.Efficiency * 100,
				Unit:     "efficiency %",
				Note:     "uniform a_r-proportional split over mixed core/IO switches",
			}, nil
		},
		// 2) Bottom-plate charge recycling (the paper's ref [4]).
		func(context.Context) (AblationRow, error) {
			noRecycleCfg := cfg
			noRecycleCfg.BottomPlateLossFactor = 1.0
			noRecycle, err := sc.New(noRecycleCfg)
			if err != nil {
				return AblationRow{}, err
			}
			mNoRec, err := noRecycle.Evaluate(spec.IMax)
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				Name:     "bottom-plate charge recycling",
				Baseline: mBase.Efficiency * 100,
				Ablated:  mNoRec.Efficiency * 100,
				Unit:     "efficiency %",
				Note:     "full bottom-plate loss without recycling",
			}, nil
		},
		// 3) Frequency-dependent inductance in the buck model.
		func(context.Context) (AblationRow, error) {
			bcfg := buck.Config{
				Node: tech.MustLookup(caseNode), Inductor: tech.IntegratedThinFilm,
				OutCap: tech.DeepTrench, VIn: 3.3, VOut: 1.0,
				L: 5e-9, COut: 100e-9, FSw: 400e6, GHigh: 4, GLow: 6, Interleave: 8,
			}
			bBase, err := buck.New(bcfg)
			if err != nil {
				return AblationRow{}, err
			}
			bcfgNoRoll := bcfg
			bcfgNoRoll.IgnoreInductorRollOff = true
			bNoRoll, err := buck.New(bcfgNoRoll)
			if err != nil {
				return AblationRow{}, err
			}
			iLoad := 8.0
			return AblationRow{
				Name:     "inductor L(f) roll-off",
				Baseline: bBase.RippleCurrent(iLoad),
				Ablated:  bNoRoll.RippleCurrent(iLoad),
				Unit:     "phase ripple A",
				Note:     "ideal inductance underestimates ripple at 400 MHz",
			}, nil
		},
		// 4) In-cycle model vs cycle-by-cycle only: high-frequency load
		//    noise is invisible at cycle granularity.
		func(runCtx context.Context) (AblationRow, error) {
			params := dynamic.SCParams{
				Ratio: 0.5, VIn: 2.0, CEq: 40e-9, REq: 0.04, COut: 25e-9, FClk: 50e6,
			}
			sim := &dynamic.SCSimulator{P: params}
			noise := dynamic.Tones(0.2, []float64{0.1}, []float64{223e6})
			combined, err := sim.RunInto(runCtx, nil, noise, dynamic.Constant(0.95), 2e-6, 0.2e-9)
			if err != nil {
				return AblationRow{}, err
			}
			cycleOnly, err := sim.CycleByCycleInto(runCtx, nil, noise, 50e6, 2e-6)
			if err != nil {
				return AblationRow{}, err
			}
			halfC := combined.V[len(combined.V)/2:]
			halfS := cycleOnly.V[len(cycleOnly.V)/2:]
			return AblationRow{
				Name:     "in-cycle model",
				Baseline: numeric.PeakToPeak(halfC) * 1e3,
				Ablated:  numeric.PeakToPeak(halfS) * 1e3,
				Unit:     "HF ripple mVpp",
				Note:     "cycle-only sampling aliases 223 MHz noise",
			}, nil
		},
	}
	rows := make([]AblationRow, len(studies))
	if err := parallel.ForContext(ctx, len(studies), opt.Workers, func(ctx context.Context, i int) (err error) {
		rows[i], err = studies[i](ctx)
		return err
	}); err != nil {
		return nil, err
	}
	return &AblationResult{Rows: rows}, nil
}

// ablationTable describes the ablations for their text table and
// ablations.csv.
var ablationTable = report.Table[AblationRow]{Name: "ablations", Columns: []report.Column[AblationRow]{
	{Text: "feature", CSV: "feature", Value: func(r AblationRow) any { return r.Name }},
	{Text: "with", CSV: "with", Value: func(r AblationRow) any { return r.Baseline }, Verb: "%.2f"},
	{Text: "without", CSV: "without", Value: func(r AblationRow) any { return r.Ablated }, Verb: "%.2f"},
	{Text: "unit", CSV: "unit", Value: func(r AblationRow) any { return r.Unit }},
	{Text: "note", Value: func(r AblationRow) any { return r.Note }},
}}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	return "Ablations — modeling/optimization features on vs off\n" + ablationTable.Text(r.Rows)
}

// WriteCSV emits ablations.csv.
func (r *AblationResult) WriteCSV(w *report.Writer) error { return ablationTable.WriteCSV(w, r.Rows) }
