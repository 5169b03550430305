package experiments

import (
	"context"
	"fmt"

	"ivory/internal/report"
	"ivory/internal/soc"
)

// DefaultHybridBudgetMM2 is the shared on-chip regulator area budget the
// hybrid experiment sweeps under: deliberately binding — roughly one big
// domain's SC converter — so the optimizer has to choose which domains
// deserve their on-chip area rather than regulating everything.
const DefaultHybridBudgetMM2 = 25

// HybridResult is the hybrid rail-assignment study: the full domain × rail
// evaluation grid of the default five-domain SoC plus the ranked
// assignments under the area budget.
type HybridResult struct {
	*soc.SweepResult
}

// HybridRun sweeps per-domain rail assignments for the default SoC
// floorplan under the default area budget. Cell evaluation fans out over
// opt.Workers; ranked output is bit-identical at every worker count.
func HybridRun(ctx context.Context, opt TransientOptions) (*HybridResult, error) {
	res, err := soc.Sweep(soc.SweepSpec{
		Context:       ctx,
		Workers:       opt.Workers,
		AreaBudgetMM2: DefaultHybridBudgetMM2,
		Top:           10,
	})
	if err != nil {
		return nil, err
	}
	return &HybridResult{res}, nil
}

func cellInfeasible(c soc.Cell) bool { return c.Infeasible != "" }

// hybridCells describes the evaluation grid for its text table, which
// blanks infeasible cells, and hybrid_cells.csv, which keeps their zeros.
var hybridCells = report.Table[soc.Cell]{Name: "hybrid_cells", Columns: []report.Column[soc.Cell]{
	{Text: "domain", CSV: "domain", Value: func(c soc.Cell) any { return c.Domain }},
	{Text: "rail", CSV: "rail", Value: func(c soc.Cell) any { return c.Rail.String() }},
	{Text: "Vpp(mV)", Value: func(c soc.Cell) any { return c.NoiseVpp }, Absent: cellInfeasible, Scale: 1e3, Verb: "%.1f"},
	{CSV: "vpp_v", Value: func(c soc.Cell) any { return c.NoiseVpp }},
	{CSV: "worst_droop_v", Value: func(c soc.Cell) any { return c.WorstDroop }},
	{Text: "margin(mV)", Value: func(c soc.Cell) any { return c.MarginV }, Absent: cellInfeasible, Scale: 1e3, Verb: "%.1f"},
	{CSV: "margin_v", Value: func(c soc.Cell) any { return c.MarginV }},
	{Text: "area(mm²)", Value: func(c soc.Cell) any { return c.AreaM2 }, Absent: cellInfeasible, Scale: 1e6, Verb: "%.2f"},
	{CSV: "area_mm2", Value: func(c soc.Cell) any { return c.AreaM2 * 1e6 }},
	{Text: "eff(%)", Value: func(c soc.Cell) any { return c.Efficiency }, Absent: cellInfeasible, Scale: 100, Verb: "%.1f"},
	{CSV: "eff", Value: func(c soc.Cell) any { return c.Efficiency }},
	{Text: "note", Value: func(c soc.Cell) any {
		if cellInfeasible(c) {
			return "infeasible: " + c.Infeasible
		}
		return ""
	}},
	{CSV: "infeasible", Value: func(c soc.Cell) any { return c.Infeasible }},
}}

// ranking describes the ranked assignments, indexed by rank, for their
// text table and hybrid_rank.csv.
func (r *HybridResult) ranking() *report.Table[int] {
	return &report.Table[int]{Name: "hybrid_rank", Columns: []report.Column[int]{
		{Text: "rank", CSV: "rank", Value: func(i int) any { return i + 1 }},
		{Text: "assignment", CSV: "assignment", Value: func(i int) any { return r.Candidates[i].Key }},
		{Text: "eff(%)", CSV: "eff", Value: func(i int) any { return r.Candidates[i].Efficiency }, Scale: 100, Verb: "%.2f"},
		{Text: "area(mm²)", CSV: "area_mm2", Value: func(i int) any { return r.Candidates[i].AreaM2 * 1e6 }, Verb: "%.2f"},
		{Text: "worst margin(mV)", CSV: "worst_margin_v", Value: func(i int) any { return r.Candidates[i].WorstMarginV }, Scale: 1e3, Verb: "%.1f"},
	}}
}

// Format renders the cell grid and the ranked assignments.
func (r *HybridResult) Format() string {
	s := r.Stats
	head := fmt.Sprintf(
		"Extension — hybrid per-domain rail assignment (%s, %d domains, budget %.0f mm², %.0f µs @ %.0f ns)\n",
		r.Floorplan, len(r.Cells)/len(r.Rails), r.AreaBudgetMM2, r.T*1e6, r.Dt*1e9)
	return head + hybridCells.Text(r.Cells) + "\n" + r.ranking().Text(upTo(len(r.Candidates))) +
		fmt.Sprintf("\n%d cells (%d infeasible); %d assignments: %d ranked, %d rejected infeasible, %d over budget (%.2g/s)\n",
			s.Cells, s.CellsInfeasible, s.Assignments, s.Ranked, s.RejectedInfeasible, s.RejectedArea, s.AssignmentsPerSec)
}

// WriteCSV emits hybrid_cells.csv (the evaluation grid) and
// hybrid_rank.csv (the ranked assignments).
func (r *HybridResult) WriteCSV(w *report.Writer) error {
	if err := hybridCells.WriteCSV(w, r.Cells); err != nil {
		return err
	}
	return r.ranking().WriteCSV(w, upTo(len(r.Candidates)))
}
