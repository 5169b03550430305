package experiments

import (
	"context"
	"fmt"

	"ivory/internal/grid"
	"ivory/internal/parallel"
	"ivory/internal/report"
)

// GridScaleRow is one distribution count's geometric grid analysis.
type GridScaleRow struct {
	// N is the IVR count; Taps the chosen placements.
	N    int
	Taps []grid.Point
	// REff is the worst-case effective grid resistance over the cores
	// (ohm), and Ratio its value relative to the centralized case.
	REff, Ratio float64
	// InvN is the 1/N reference the lumped PDS model assumes.
	InvN float64
}

// GridScaleResult grounds the PDS model's "grid impedance divided by the
// IVR count" assumption in floorplan geometry: a 2-D mesh of the 4-SM die
// with IVR taps placed by the heuristic, solved exactly.
type GridScaleResult struct {
	MeshW, MeshH int
	RTile        float64
	Rows         []GridScaleRow
}

// GridScaleRun runs the placement study on a 24x24-tile mesh of the
// case-study die, with ctx threaded into the placement heuristic and the
// region resistance sweeps. It fans the per-distribution-count analyses
// (placement, solver factorization, region sweep) out over opt.Workers.
// The Ratio column needs the centralized row as its reference, so ratios
// are derived after the deterministic per-index merge — results are
// identical for every worker count.
func GridScaleRun(ctx context.Context, opt TransientOptions) (*GridScaleResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// 20 mm2 die -> ~4.5 mm on a side; 24 tiles of ~190 um at ~27 mohm/sq
	// sheet and a handful of squares per tile link.
	m, err := grid.NewMesh(24, 24, 0.05)
	if err != nil {
		return nil, err
	}
	centers := m.QuadCores()
	// Each SM occupies a 3x3-tile region around its center; the worst tile
	// of any region sets the spreading resistance (a regulator tap cannot
	// cover a whole core).
	var region []grid.Point
	for _, c := range centers {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				region = append(region, grid.Point{X: c.X + dx, Y: c.Y + dy})
			}
		}
	}
	res := &GridScaleResult{MeshW: m.W, MeshH: m.H, RTile: m.RTile}
	counts := []int{1, 2, 4, 8}
	rows := make([]GridScaleRow, len(counts))
	if err := parallel.ForContext(ctx, len(counts), opt.Workers, func(ctx context.Context, i int) error {
		n := counts[i]
		taps, err := m.PlaceIVRsContext(ctx, n, centers)
		if err != nil {
			return err
		}
		// One solver context per tap set: the Laplacian is factored once and
		// reused for every per-tile solve in the region sweep.
		s, err := m.NewSolver(taps)
		if err != nil {
			return err
		}
		r, err := s.WorstCaseResistanceContext(ctx, region)
		if err != nil {
			return err
		}
		rows[i] = GridScaleRow{N: n, Taps: taps, REff: r, InvN: 1 / float64(n)}
		return nil
	}); err != nil {
		return nil, err
	}
	r1 := rows[0].REff
	for i := range rows {
		if r1 > 0 {
			rows[i].Ratio = rows[i].REff / r1
		}
	}
	res.Rows = rows
	return res, nil
}

// gridScaleTable describes the study for its text table and gridscale.csv.
var gridScaleTable = report.Table[GridScaleRow]{Name: "gridscale", Columns: []report.Column[GridScaleRow]{
	{Text: "IVRs", CSV: "n_ivrs", Value: func(r GridScaleRow) any { return r.N }},
	{Text: "worst R_eff(Ω)", CSV: "r_eff_ohm", Value: func(r GridScaleRow) any { return r.REff }, Verb: "%.4f"},
	{Text: "vs centralized", CSV: "ratio_vs_centralized", Value: func(r GridScaleRow) any { return r.Ratio }, Verb: "%.2f"},
	{Text: "1/N ref", CSV: "inv_n", Value: func(r GridScaleRow) any { return r.InvN }, Verb: "%.2f"},
	{Text: "placements", Value: func(r GridScaleRow) any { return r.Taps }},
}}

// Format renders the study.
func (r *GridScaleResult) Format() string {
	return fmt.Sprintf("Extension — grid-resistance scaling with IVR distribution (%dx%d mesh, %.0f mΩ/link)\n",
		r.MeshW, r.MeshH, r.RTile*1e3) + gridScaleTable.Text(r.Rows)
}

// WriteCSV emits gridscale.csv.
func (r *GridScaleResult) WriteCSV(w *report.Writer) error { return gridScaleTable.WriteCSV(w, r.Rows) }
