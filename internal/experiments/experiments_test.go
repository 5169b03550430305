package experiments

import (
	"context"
	"strings"
	"testing"

	"ivory/internal/numeric"
)

// TestFig4SpeedupShape times each frequency point as the best of three
// Fig4 runs: at 10 MHz the 2 µs span is only 20 cycles, so both timings
// are a few µs and a single run is at the mercy of scheduler noise.
func TestFig4SpeedupShape(t *testing.T) {
	var r *Fig4Result
	for run := 0; run < 3; run++ {
		got, err := Fig4(2e-6)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) < 4 {
			t.Fatalf("too few frequency points: %d", len(got.Rows))
		}
		if r == nil {
			r = got
			continue
		}
		for i := range r.Rows {
			r.Rows[i].TSpice = min(r.Rows[i].TSpice, got.Rows[i].TSpice)
			r.Rows[i].TModel = min(r.Rows[i].TModel, got.Rows[i].TModel)
			r.Rows[i].Speedup = float64(r.Rows[i].TSpice) / float64(r.Rows[i].TModel)
		}
	}
	for _, row := range r.Rows {
		if row.Speedup <= 1 {
			t.Errorf("fsw %.0f MHz: model not faster than simulation (%.1fx)", row.FSw/1e6, row.Speedup)
		}
		// Model voltage tracks the simulation within a few percent.
		if d := row.VSpice - row.VModel; d > 0.05 || d < -0.05 {
			t.Errorf("fsw %.0f MHz: V mismatch: sim %.4f vs model %.4f", row.FSw/1e6, row.VSpice, row.VModel)
		}
	}
	// Speedup grows with switching frequency (the paper's trend).
	first, last := r.Rows[0].Speedup, r.Rows[len(r.Rows)-1].Speedup
	if last < 3*first {
		t.Errorf("speedup should grow strongly with fsw: %.0fx -> %.0fx", first, last)
	}
	if !strings.Contains(r.Format(), "speedup") {
		t.Error("Format output incomplete")
	}
}

func TestFig6RegulationShape(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tones) != 3 {
		t.Fatalf("expected 3 tones, got %d", len(r.Tones))
	}
	// Below fsw: active regulation clearly beats the bare capacitor.
	if r.Tones[0].Ratio > 0.5 {
		t.Errorf("below fsw the converter should regulate: conv/cap = %.2f", r.Tones[0].Ratio)
	}
	// At/above fsw: converter and capacitor are equivalent (paper Eq. 5).
	for _, tn := range r.Tones[1:] {
		if tn.Ratio < 0.6 || tn.Ratio > 1.6 {
			t.Errorf("tone %.0f MHz: conv/cap = %.2f, want ~1", tn.Freq/1e6, tn.Ratio)
		}
	}
	// The analytic model agrees qualitatively.
	if r.AnalyticAdvantage[0] < 2 {
		t.Errorf("analytic advantage below fsw should be large: %v", r.AnalyticAdvantage[0])
	}
	if !strings.Contains(r.Format(), "regulation effect") {
		t.Error("Format output incomplete")
	}
}

func TestFig7ValidationAccuracy(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cases) != 4 {
		t.Fatalf("expected 4 validation cases, got %d", len(r.Cases))
	}
	for _, c := range r.Cases {
		if len(c.Points) < 4 {
			t.Errorf("%s: only %d functional points", c.Name, len(c.Points))
		}
		// Conduction model vs simulation within 3 percentage points over
		// the functional range.
		if c.MaxErr > 0.03 {
			t.Errorf("%s: max model-vs-sim error %.2f%%", c.Name, c.MaxErr*100)
		}
		// Efficiency increases with V_out up to the peak (paper's shape).
		for i := 1; i < len(c.Points)-1; i++ {
			if c.Points[i].EffModelCond < c.Points[i-1].EffModelCond {
				t.Errorf("%s: conduction efficiency not rising with V_out", c.Name)
				break
			}
		}
	}
	if !strings.Contains(r.Format(), "SC efficiency validation") {
		t.Error("Format output incomplete")
	}
}

func TestFig8ValidationAccuracy(t *testing.T) {
	r, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cases) != 2 {
		t.Fatalf("expected 2 buck cases, got %d", len(r.Cases))
	}
	for _, c := range r.Cases {
		if c.MaxErr > 0.03 {
			t.Errorf("%s: max error %.2f%%", c.Name, c.MaxErr*100)
		}
		// Efficiency falls with load (conduction grows quadratically) —
		// the measured converter's shape in the paper.
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].EffModel >= c.Points[i-1].EffModel {
				t.Errorf("%s: efficiency should fall with load", c.Name)
			}
		}
	}
}

func TestFig9TransientAccuracy(t *testing.T) {
	r, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// Cycle-by-cycle: settled-level agreement within 10 mV RMS.
	if r.CycleRMSE > 0.010 {
		t.Errorf("cycle-by-cycle RMSE %.2f mV too large", r.CycleRMSE*1e3)
	}
	// In-cycle ripple within 15%.
	if r.InCycleErr > 0.15 {
		t.Errorf("in-cycle ripple error %.1f%%", r.InCycleErr*100)
	}
	if len(r.CycleTimes) < 50 {
		t.Error("too few comparison samples")
	}
}

func TestTable1Contents(t *testing.T) {
	s, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"20", "3.3", "0.85", "45nm"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Ordering(t *testing.T) {
	tbl, err := Table2Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eff := map[string]float64{}
	for _, row := range tbl.Rows {
		for i, ok := range row.Feasible {
			if ok {
				eff[row.Kind.String()] = row.Efficiency[i]
				break
			}
			_ = i
		}
	}
	if !(eff["SC"] > eff["buck"] && eff["buck"] > eff["LDO"]) {
		t.Errorf("Table 2 ordering violated: %v", eff)
	}
}

func TestFig10And11NoiseOrdering(t *testing.T) {
	r, err := Fig10Run(context.Background(), TransientOptions{T: 10e-6, Dt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 7*4 {
		t.Fatalf("expected 28 cells, got %d", len(r.Cells))
	}
	off := r.NoiseByConfig["off-chip VRM"]
	cen := r.NoiseByConfig["centralized IVR"]
	four := r.NoiseByConfig["4 distributed IVRs"]
	if !(off > cen && cen > four) {
		t.Errorf("worst-case noise ordering violated: off %.3f, cen %.3f, 4d %.3f", off, cen, four)
	}
	// CFD waveforms exist for all four configurations.
	if len(r.CFDTraces) != 4 {
		t.Errorf("expected 4 CFD traces, got %d", len(r.CFDTraces))
	}
	if !strings.Contains(r.FormatFig11(), "CFD") || !strings.Contains(r.Format(), "Vpp") {
		t.Error("format output incomplete")
	}
}

func TestFig12AreaTradeoff(t *testing.T) {
	r, err := Fig12Run(context.Background(), TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 5 {
		t.Fatalf("too few area points: %d", len(r.Points))
	}
	// SC efficiency grows with area budget; LDO is area-insensitive.
	var firstSC, lastSC float64 = -1, -1
	for _, p := range r.Points {
		if p.EffSC > 0 {
			if firstSC < 0 {
				firstSC = p.EffSC
			}
			lastSC = p.EffSC
		}
	}
	if firstSC < 0 || lastSC <= firstSC {
		t.Errorf("SC efficiency should grow with area: %.3f -> %.3f", firstSC, lastSC)
	}
	// At the case-study budget (20 mm2) SC beats buck.
	for _, p := range r.Points {
		if numeric.ApproxEqual(p.AreaMM2, 20, 0) {
			if p.EffSC <= p.EffBuck {
				t.Errorf("at 20 mm2 SC should beat buck: %.3f vs %.3f", p.EffSC, p.EffBuck)
			}
		}
	}
}

func TestFig13IVRWins(t *testing.T) {
	noise, err := Fig10Run(context.Background(), TransientOptions{T: 10e-6, Dt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fig13Run(context.Background(), noise, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Breakdowns) != 4 {
		t.Fatalf("expected 4 breakdowns, got %d", len(r.Breakdowns))
	}
	// The headline result: a distributed-IVR PDS beats the off-chip VRM.
	if r.ImprovementPP <= 0 {
		t.Errorf("IVR PDS should win: improvement %.1f pp", r.ImprovementPP)
	}
	if r.ImprovementPP > 25 {
		t.Errorf("improvement %.1f pp implausibly large", r.ImprovementPP)
	}
	if !strings.Contains(r.BestConfig, "distributed") {
		t.Errorf("best config should be distributed: %s", r.BestConfig)
	}
	// Every breakdown's ladder sums to the source power.
	for _, b := range r.Breakdowns {
		sum := b.PCoreUseful + b.PMargin + b.PGridIR + b.PIVRLoss + b.PPDNIR + b.PVRMLoss
		if d := (b.PSource - sum) / b.PSource; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: ladder does not sum: %v vs %v", b.Config, b.PSource, sum)
		}
	}
	if !strings.Contains(r.Format(), "delivery efficiency") {
		t.Error("Format output incomplete")
	}
}
