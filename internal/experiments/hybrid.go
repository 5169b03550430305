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

// Format renders the cell grid and the ranked assignments.
func (r *HybridResult) Format() string {
	cellRows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		if c.Infeasible != "" {
			cellRows = append(cellRows, []string{
				c.Domain, c.Rail.String(), "-", "-", "-", "-", "infeasible: " + c.Infeasible,
			})
			continue
		}
		cellRows = append(cellRows, []string{
			c.Domain,
			c.Rail.String(),
			fmt.Sprintf("%.1f", c.NoiseVpp*1e3),
			fmt.Sprintf("%.1f", c.MarginV*1e3),
			fmt.Sprintf("%.2f", c.AreaM2*1e6),
			fmt.Sprintf("%.1f", c.Efficiency*100),
			"",
		})
	}
	candRows := make([][]string, 0, len(r.Candidates))
	for i, c := range r.Candidates {
		candRows = append(candRows, []string{
			fmt.Sprintf("%d", i+1),
			c.Key,
			fmt.Sprintf("%.2f", c.Efficiency*100),
			fmt.Sprintf("%.2f", c.AreaM2*1e6),
			fmt.Sprintf("%.1f", c.WorstMarginV*1e3),
		})
	}
	s := r.Stats
	head := fmt.Sprintf(
		"Extension — hybrid per-domain rail assignment (%s, %d domains, budget %.0f mm², %.0f µs @ %.0f ns)\n",
		r.Floorplan, len(r.Cells)/len(r.Rails), r.AreaBudgetMM2, r.T*1e6, r.Dt*1e9)
	return head +
		table([]string{"domain", "rail", "Vpp(mV)", "margin(mV)", "area(mm²)", "eff(%)", "note"}, cellRows) +
		"\n" +
		table([]string{"rank", "assignment", "eff(%)", "area(mm²)", "worst margin(mV)"}, candRows) +
		fmt.Sprintf("\n%d cells (%d infeasible); %d assignments: %d ranked, %d rejected infeasible, %d over budget (%.2g/s)\n",
			s.Cells, s.CellsInfeasible, s.Assignments, s.Ranked, s.RejectedInfeasible, s.RejectedArea, s.AssignmentsPerSec)
}

// WriteCSV emits hybrid_cells.csv (the evaluation grid) and
// hybrid_rank.csv (the ranked assignments).
func (r *HybridResult) WriteCSV(w *report.Writer) error {
	cellRows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		cellRows = append(cellRows, []string{
			c.Domain,
			c.Rail.String(),
			fmt.Sprintf("%g", c.NoiseVpp),
			fmt.Sprintf("%g", c.WorstDroop),
			fmt.Sprintf("%g", c.MarginV),
			fmt.Sprintf("%g", c.AreaM2*1e6),
			fmt.Sprintf("%g", c.Efficiency),
			c.Infeasible,
		})
	}
	if err := w.CSVStrings("hybrid_cells",
		[]string{"domain", "rail", "vpp_v", "worst_droop_v", "margin_v", "area_mm2", "eff", "infeasible"},
		cellRows); err != nil {
		return err
	}
	candRows := make([][]string, 0, len(r.Candidates))
	for i, c := range r.Candidates {
		candRows = append(candRows, []string{
			fmt.Sprintf("%d", i+1),
			c.Key,
			fmt.Sprintf("%g", c.Efficiency),
			fmt.Sprintf("%g", c.AreaM2*1e6),
			fmt.Sprintf("%g", c.WorstMarginV),
		})
	}
	return w.CSVStrings("hybrid_rank",
		[]string{"rank", "assignment", "eff", "area_mm2", "worst_margin_v"}, candRows)
}
