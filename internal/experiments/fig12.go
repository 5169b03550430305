package experiments

import (
	"context"
	"fmt"

	"ivory/internal/core"
	"ivory/internal/parallel"
	"ivory/internal/report"
)

// Fig12Point is one area budget's best-efficiency outcome per family.
type Fig12Point struct {
	// AreaMM2 is the budget in mm².
	AreaMM2 float64
	// EffSC, EffBuck, EffLDO are the best efficiencies (negative when
	// infeasible at this budget).
	EffSC, EffBuck, EffLDO float64
}

// Fig12Result reproduces the paper's Fig. 12: the IVR efficiency trade-off
// with area. SC efficiency climbs steeply with capacitance area and
// overtakes the buck once the budget affords enough flying capacitance;
// the LDO is area-insensitive but ratio-bound.
type Fig12Result struct {
	Points []Fig12Point
	// CrossoverMM2 is the smallest budget where SC beats buck (0 when it
	// never does in the sweep).
	CrossoverMM2 float64
}

// Fig12Run sweeps the area budget for the case-study operating point, with
// ctx threaded into each per-budget exploration. It fans the per-budget
// explorations out over opt.Workers; the crossover scan runs on the
// merged, budget-ordered points, so the result matches the serial sweep
// for every worker count.
func Fig12Run(ctx context.Context, opt TransientOptions) (*Fig12Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	budgets := []float64{2, 4, 6, 10, 14, 20, 28, 40}
	points := make([]Fig12Point, len(budgets))
	if err := parallel.ForContext(ctx, len(budgets), opt.Workers, func(ctx context.Context, i int) error {
		areaMM2 := budgets[i]
		spec := cs.Spec
		spec.AreaMax = areaMM2 * 1e-6
		spec.Context = ctx
		pt := Fig12Point{AreaMM2: areaMM2, EffSC: -1, EffBuck: -1, EffLDO: -1}
		// An exploration error at one budget means the budget is infeasible
		// (unless the whole run was cancelled, which ForContext then
		// reports): the point stays at its "-" sentinel values.
		if r, err := core.Explore(spec); err == nil {
			if c, ok := r.BestOfKind(core.KindSC); ok {
				pt.EffSC = c.Metrics.Efficiency
			}
			if c, ok := r.BestOfKind(core.KindBuck); ok {
				pt.EffBuck = c.Metrics.Efficiency
			}
			if c, ok := r.BestOfKind(core.KindLDO); ok {
				pt.EffLDO = c.Metrics.Efficiency
			}
		}
		points[i] = pt
		return nil
	}); err != nil {
		// Cancellation, not an infeasible budget: discard the partial sweep.
		return nil, err
	}
	res := &Fig12Result{Points: points}
	for _, pt := range points {
		if res.CrossoverMM2 == 0 && pt.EffSC > pt.EffBuck && pt.EffSC > 0 && pt.EffBuck > 0 {
			res.CrossoverMM2 = pt.AreaMM2
		}
	}
	return res, nil
}

// fig12Table describes the area sweep for Fig 12's text table and fig12.csv.
var fig12Table = report.Table[Fig12Point]{Name: "fig12", Columns: []report.Column[Fig12Point]{
	{Text: "area(mm2)", CSV: "area_mm2", Value: func(p Fig12Point) any { return p.AreaMM2 }, Verb: "%.0f"},
	{Text: "SC(%)", CSV: "eff_sc", Value: func(p Fig12Point) any { return p.EffSC }, Absent: func(p Fig12Point) bool { return p.EffSC < 0 }, Scale: 100, Verb: "%.1f"},
	{Text: "buck(%)", CSV: "eff_buck", Value: func(p Fig12Point) any { return p.EffBuck }, Absent: func(p Fig12Point) bool { return p.EffBuck < 0 }, Scale: 100, Verb: "%.1f"},
	{Text: "LDO(%)", CSV: "eff_ldo", Value: func(p Fig12Point) any { return p.EffLDO }, Absent: func(p Fig12Point) bool { return p.EffLDO < 0 }, Scale: 100, Verb: "%.1f"},
}}

// Format renders the trade-off table.
func (r *Fig12Result) Format() string {
	out := "Fig. 12 — IVR efficiency trade-off with area budget\n"
	out += fig12Table.Text(r.Points)
	if r.CrossoverMM2 > 0 {
		out += fmt.Sprintf("SC overtakes buck at ~%.0f mm2\n", r.CrossoverMM2)
	}
	return out
}

// WriteCSV emits fig12.csv.
func (r *Fig12Result) WriteCSV(w *report.Writer) error { return fig12Table.WriteCSV(w, r.Points) }
