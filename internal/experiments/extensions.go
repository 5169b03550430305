package experiments

import (
	"context"
	"fmt"

	"ivory/internal/core"
	"ivory/internal/dynamic"
	"ivory/internal/numeric"
	"ivory/internal/pds"
	"ivory/internal/report"
	"ivory/internal/sc"
)

// TwoStageResult wraps the hierarchical-composition exploration the paper
// lists among Ivory's capabilities: off-chip VRM to an intermediate rail,
// on-chip IVR from there to the core.
type TwoStageResult struct {
	Inner *core.TwoStageResult
}

// TwoStageContext explores intermediate rails for the case-study
// conversion, with ctx threaded into the single-stage reference and every
// per-rail re-exploration.
func TwoStageContext(ctx context.Context) (*TwoStageResult, error) {
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	spec := cs.Spec
	spec.VOut = 0.9
	spec.Context = ctx
	stage1 := func(vOut, pOut float64) (float64, error) {
		return pds.BoardVRMEfficiency(cs.System.VSource, vOut, pOut)
	}
	inner, err := core.ExploreTwoStage(spec, []float64{1.2, 1.5, 1.8, 2.2, 2.6}, stage1)
	if err != nil {
		return nil, err
	}
	return &TwoStageResult{Inner: inner}, nil
}

// twoStageTable describes twostage.csv; core renders the text table.
var twoStageTable = report.Table[core.TwoStageRow]{Name: "twostage", Columns: []report.Column[core.TwoStageRow]{
	{CSV: "vmid_v", Value: func(r core.TwoStageRow) any { return r.VMid }},
	{CSV: "stage1_eff", Value: func(r core.TwoStageRow) any { return r.Stage1Eff }},
	{CSV: "stage2_eff", Value: func(r core.TwoStageRow) any { return r.Stage2Eff }},
	{CSV: "combined_eff", Value: func(r core.TwoStageRow) any { return r.Combined }},
	{CSV: "feasible", Value: func(r core.TwoStageRow) any {
		if r.Feasible {
			return 1
		}
		return 0
	}},
}}

// Format renders the exploration.
func (r *TwoStageResult) Format() string {
	return "Extension — hierarchical (two-stage) power delivery\n" + r.Inner.Format()
}

// WriteCSV emits twostage.csv.
func (r *TwoStageResult) WriteCSV(w *report.Writer) error {
	return twoStageTable.WriteCSV(w, r.Inner.Rows)
}

// DVFSRow is one schedule period of the fast-DVFS study.
type DVFSRow struct {
	// PeriodUS is the DVFS toggle period (µs).
	PeriodUS float64
	// EnergySavingPct is the core+IVR energy saved vs running fixed at the
	// high voltage for the same work pattern.
	EnergySavingPct float64
	// ResidencyPct is the fraction of each low phase actually spent at the
	// low voltage (transitions eat the rest).
	ResidencyPct float64
}

// DVFSResult is the fast per-core DVFS exploration — the future-work item
// the paper's §5.4 flags ("fast DVFS could yield further improvement and
// can also be explored using Ivory").
type DVFSResult struct {
	// UpTransitionNS and DownTransitionNS are the measured reference-step
	// transition times of the case-study IVR.
	UpTransitionNS, DownTransitionNS float64
	Rows                             []DVFSRow
}

// FastDVFSContext measures DVFS transition times of the case-study SC IVR
// with the dynamic model, then evaluates the energy benefit of toggling
// between a 0.95 V active state and a 0.70 V idle state (50 % duty) across
// schedule periods. ctx is threaded into the case-study exploration that
// picks the IVR design (searched once per process; a cancelled context
// fails the call even when the design is already known).
func FastDVFSContext(ctx context.Context) (*DVFSResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	design, err := caseIVRDesign(ctx)
	if err != nil {
		return nil, err
	}
	vHi, vLo := 0.95, 0.70
	iHi := cs.Spec.IMax / 4 // one core's worth on one distributed IVR
	params, err := dynamic.SCFromDesignAtLoad(design, cs.Spec.IMax)
	if err != nil {
		return nil, err
	}
	// One of four distributed instances.
	params.CEq /= 4
	params.COut /= 4
	params.Interleave = 8
	sim := &dynamic.SCSimulator{P: params}
	res := &DVFSResult{}

	// Measure the up transition: start regulated at vLo, step the
	// reference to vHi.
	tick := 1 / (params.FClk * float64(params.Interleave))
	tStep := 0.5e-6
	tr, err := sim.Run(dynamic.Constant(iHi*0.4), dynamic.Step(vLo, vHi, tStep), 2e-6, tick)
	if err != nil {
		return nil, err
	}
	res.UpTransitionNS = settleTime(tr, tStep, vHi, 0.02) * 1e9
	trDown, err := sim.Run(dynamic.Constant(iHi*0.4), dynamic.Step(vHi, vLo, tStep), 4e-6, tick)
	if err != nil {
		return nil, err
	}
	res.DownTransitionNS = settleTimeDown(trDown, tStep, vLo, 0.02) * 1e9

	// Energy accounting: the load spends half its time active (vHi, full
	// current) and half idle (vLo, leakage-dominated). Without DVFS the
	// idle phase still sits at vHi. Transition intervals are spent at vHi
	// (conservative) and the converter's efficiency at each operating
	// point scales the drawn energy.
	load := cs.System.Load
	effAt := func(v, i float64) float64 {
		cfg := design.Config()
		cfg.VOut = v
		d2, err := sc.New(cfg)
		if err != nil {
			return 0.70 // fallback: conservative flat efficiency
		}
		m, err := d2.Evaluate(i)
		if err != nil {
			return 0.70
		}
		return m.Efficiency
	}
	iActive := load.Current(1.0, vHi)
	iIdleLo := load.Current(0.05, vLo)
	iIdleHi := load.Current(0.05, vHi)
	effActive := effAt(vHi, iActive)
	effIdleLo := effAt(vLo, iIdleLo)
	effIdleHi := effAt(vHi, iIdleHi)
	tTrans := (res.UpTransitionNS + res.DownTransitionNS) * 1e-9
	for _, periodUS := range []float64{0.5, 1, 2, 5, 10, 50} {
		p := periodUS * 1e-6
		half := p / 2
		// Fixed-voltage energy per period.
		eFixed := half*vHi*iActive/effActive + half*vHi*iIdleHi/effIdleHi
		// DVFS: the idle half loses tTrans to transitions (at vHi cost).
		resid := (half - tTrans) / half
		if resid < 0 {
			resid = 0
		}
		eDVFS := half*vHi*iActive/effActive +
			(half-half*resid)*vHi*iIdleHi/effIdleHi +
			half*resid*vLo*iIdleLo/effIdleLo
		saving := (eFixed - eDVFS) / eFixed * 100
		res.Rows = append(res.Rows, DVFSRow{
			PeriodUS:        periodUS,
			EnergySavingPct: saving,
			ResidencyPct:    resid * 100,
		})
	}
	return res, nil
}

// settleTime returns the time from tStep until the waveform first stays
// within tol of target.
func settleTime(tr *dynamic.Trace, tStep, target, tol float64) float64 {
	for i, t := range tr.Times {
		if t >= tStep && tr.V[i] >= target*(1-tol) {
			return t - tStep
		}
	}
	return tr.Times[len(tr.Times)-1] - tStep
}

// settleTimeDown is the falling-edge variant.
func settleTimeDown(tr *dynamic.Trace, tStep, target, tol float64) float64 {
	for i, t := range tr.Times {
		if t >= tStep && tr.V[i] <= target*(1+tol) {
			return t - tStep
		}
	}
	return tr.Times[len(tr.Times)-1] - tStep
}

// dvfsTable describes the DVFS periods for their text table and dvfs.csv.
var dvfsTable = report.Table[DVFSRow]{Name: "dvfs", Columns: []report.Column[DVFSRow]{
	{Text: "period(us)", CSV: "period_us", Value: func(r DVFSRow) any { return r.PeriodUS }, Verb: "%.1f"},
	{Text: "energy saving(%)", CSV: "saving_pct", Value: func(r DVFSRow) any { return r.EnergySavingPct }, Verb: "%.1f"},
	{Text: "low-V residency(%)", CSV: "residency_pct", Value: func(r DVFSRow) any { return r.ResidencyPct }, Verb: "%.1f"},
}}

// Format renders the DVFS study.
func (r *DVFSResult) Format() string {
	out := "Extension — fast per-core DVFS with the case-study IVR\n"
	out += fmt.Sprintf("reference-step transitions: up %.0f ns, down %.0f ns\n",
		r.UpTransitionNS, r.DownTransitionNS)
	out += dvfsTable.Text(r.Rows)
	out += fmt.Sprintf("asymptotic saving %.1f%% — fast IVR transitions keep savings high even at sub-microsecond scheduling\n",
		numeric.Clamp(r.Rows[len(r.Rows)-1].EnergySavingPct, 0, 100))
	return out
}

// WriteCSV emits dvfs.csv.
func (r *DVFSResult) WriteCSV(w *report.Writer) error { return dvfsTable.WriteCSV(w, r.Rows) }
