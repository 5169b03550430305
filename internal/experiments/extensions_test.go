package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivory/internal/report"

	"ivory/internal/numeric"
)

// Every extension result emits plot-ready CSVs.
func TestExtensionCSVWriters(t *testing.T) {
	dir := t.TempDir()
	w := report.NewWriter(dir)
	g, err := Gears()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteCSV(w); err != nil {
		t.Fatal(err)
	}
	gs, err := GridScaleRun(context.Background(), TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gs.WriteCSV(w); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"gears.csv", "gridscale.csv"} {
		raw, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if len(strings.Split(strings.TrimSpace(string(raw)), "\n")) < 3 {
			t.Errorf("%s: too few rows", f)
		}
	}
}

func TestAblationsAllMeaningful(t *testing.T) {
	r, err := AblationsRun(context.Background(), TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("expected 4 ablations, got %d", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	// Cost-aware allocation must beat the uniform split.
	if a := byName["cost-aware G allocation"]; a.Baseline <= a.Ablated {
		t.Errorf("cost-aware allocation should win: %.2f vs %.2f", a.Baseline, a.Ablated)
	}
	// Charge recycling must improve efficiency.
	if a := byName["bottom-plate charge recycling"]; a.Baseline <= a.Ablated {
		t.Errorf("recycling should win: %.2f vs %.2f", a.Baseline, a.Ablated)
	}
	// Ignoring inductor roll-off underestimates ripple.
	if a := byName["inductor L(f) roll-off"]; a.Baseline <= a.Ablated {
		t.Errorf("roll-off should increase ripple: %.3f vs %.3f", a.Baseline, a.Ablated)
	}
	// The cycle-only model misrepresents high-frequency ripple.
	if a := byName["in-cycle model"]; numeric.ApproxEqual(a.Baseline, a.Ablated, 0) {
		t.Error("in-cycle model should change the HF ripple estimate")
	}
	if !strings.Contains(r.Format(), "Ablations") {
		t.Error("Format incomplete")
	}
}

func TestTwoStageExploration(t *testing.T) {
	r, err := TwoStageContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inner := r.Inner
	if inner.Best == nil {
		t.Fatal("no feasible two-stage design")
	}
	feasible := 0
	for _, row := range inner.Rows {
		if !row.Feasible {
			continue
		}
		feasible++
		if row.Combined > row.Stage1Eff || row.Combined > row.Stage2Eff {
			t.Errorf("Vmid %.2f: combined efficiency exceeds a stage", row.VMid)
		}
		if row.Combined <= 0 || row.Combined >= 1 {
			t.Errorf("Vmid %.2f: combined %.3f out of range", row.VMid, row.Combined)
		}
	}
	if feasible < 3 {
		t.Errorf("only %d feasible intermediate rails", feasible)
	}
	// The best intermediate rail should sit well below the source: deep
	// first-stage conversion is cheap off-chip, shallow second-stage
	// conversion is cheap on-chip.
	if inner.Best.VMid > 2.4 {
		t.Errorf("best Vmid %.2f implausibly close to the source", inner.Best.VMid)
	}
	if !strings.Contains(r.Format(), "two-stage") {
		t.Error("Format incomplete")
	}
}

func TestVariationStudy(t *testing.T) {
	r, err := VariationContext(context.Background(), 80, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.N < 60 {
		t.Fatalf("too few surviving samples: %d", r.Stats.N)
	}
	// The distribution brackets the nominal point.
	if !(r.Stats.Min <= r.Nominal && r.Nominal <= r.Stats.Max) {
		t.Errorf("nominal %.3f outside [%v, %v]", r.Nominal, r.Stats.Min, r.Stats.Max)
	}
	// 10% parameter spread should not move efficiency by more than a few
	// points either way — the regulation loop absorbs parameter shifts.
	if r.Stats.Std > 0.05 {
		t.Errorf("efficiency spread implausibly wide: %.3f", r.Stats.Std)
	}
	if r.FailFraction > 0.2 {
		t.Errorf("too many corner failures: %.2f", r.FailFraction)
	}
	if !strings.Contains(r.Format(), "process-variation") {
		t.Error("Format incomplete")
	}
}

// TestVariationDeterministic pins the seeded Monte-Carlo study to one
// output: every run perturbs the same parameters with the same draws.
func TestVariationDeterministic(t *testing.T) {
	var want string
	for run := 0; run < 6; run++ {
		r, err := VariationContext(context.Background(), 8, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Format()
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", run, got, want)
		}
	}
}

func TestNodeSweepTrends(t *testing.T) {
	r, err := NodeSweepContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 8 {
		t.Fatalf("expected all builtin nodes, got %d", len(r.Rows))
	}
	byNode := map[string]NodeSweepRow{}
	for _, row := range r.Rows {
		byNode[row.Node] = row
	}
	// Advanced nodes (dense trench caps, better switches) favor the SC and
	// beat the oldest node's best design.
	new14, ok1 := byNode["14nm"]
	old130, ok2 := byNode["130nm"]
	if !ok1 || !ok2 || !new14.Feasible || !old130.Feasible {
		t.Fatal("missing node rows")
	}
	if new14.Kind != "SC" {
		t.Errorf("14nm winner should be SC, got %s", new14.Kind)
	}
	if new14.Efficiency <= old130.Efficiency {
		t.Errorf("scaling should help: 14nm %.3f vs 130nm %.3f", new14.Efficiency, old130.Efficiency)
	}
	if !strings.Contains(r.Format(), "per technology node") {
		t.Error("Format incomplete")
	}
}

func TestGearsEnvelope(t *testing.T) {
	r, err := Gears()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.VOut) < 15 {
		t.Fatalf("envelope too short: %d", len(r.VOut))
	}
	// Exactly one gear shift, in the crossing window between the 2:1 and
	// 3:2 ideal outputs (0.9 V and 1.2 V ideals at 1.8 V in).
	if len(r.ShiftV) != 1 {
		t.Fatalf("expected one gear shift, got %v", r.ShiftV)
	}
	if r.ShiftV[0] < 0.8 || r.ShiftV[0] > 1.0 {
		t.Errorf("shift at %.2f V outside the crossing window", r.ShiftV[0])
	}
	// Low targets use gear 0 (2:1), high targets gear 1 (3:2).
	if r.Gear[0] != 0 || r.Gear[len(r.Gear)-1] != 1 {
		t.Errorf("gear assignment wrong: %v", r.Gear)
	}
	if !strings.Contains(r.Format(), "gear shift") {
		t.Error("Format incomplete")
	}
}

func TestGridScaleMonotone(t *testing.T) {
	r, err := GridScaleRun(context.Background(), TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("expected 4 distribution counts, got %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].REff > r.Rows[i-1].REff+1e-12 {
			t.Errorf("grid resistance should not grow with distribution: %v", r.Rows)
		}
	}
	// Point-of-load (N = cores) cuts the spreading resistance strongly.
	if r.Rows[2].Ratio > 0.6 {
		t.Errorf("4 IVRs should cut grid resistance well below centralized: ratio %.2f", r.Rows[2].Ratio)
	}
	// But not to zero: the core regions are larger than a tap.
	if r.Rows[2].REff <= 0 {
		t.Error("core regions should retain residual spreading resistance")
	}
	if !strings.Contains(r.Format(), "grid-resistance scaling") {
		t.Error("Format incomplete")
	}
}

func TestFamilyTransientsOrdering(t *testing.T) {
	r, err := FamilyTransients()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("expected 3 families, got %d", len(r.Rows))
	}
	byName := map[string]FamilyTransientRow{}
	for _, row := range r.Rows {
		byName[row.Family] = row
		if row.WorstDroopMV <= 0 {
			t.Errorf("%s: no droop measured", row.Family)
		}
		if row.RecoveryNS < 0 || row.RecoveryNS > 5000 {
			t.Errorf("%s: recovery %.0f ns implausible", row.Family, row.RecoveryNS)
		}
	}
	// The SC's charge reservoir gives it the smallest droop; the buck's
	// inductor slew + loop latency the largest.
	sc := byName["SC (hysteretic)"]
	buck := byName["buck (PI)"]
	if sc.WorstDroopMV >= buck.WorstDroopMV {
		t.Errorf("SC droop %.1f should be below buck %.1f", sc.WorstDroopMV, buck.WorstDroopMV)
	}
	if !strings.Contains(r.Format(), "family transient") {
		t.Error("Format incomplete")
	}
}

func TestFastDVFSBehaviour(t *testing.T) {
	r, err := FastDVFSContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Transitions at nanosecond scale — the headline IVR capability.
	if r.UpTransitionNS <= 0 || r.UpTransitionNS > 500 {
		t.Errorf("up transition %.0f ns implausible", r.UpTransitionNS)
	}
	if r.DownTransitionNS <= 0 || r.DownTransitionNS > 2000 {
		t.Errorf("down transition %.0f ns implausible", r.DownTransitionNS)
	}
	if len(r.Rows) < 4 {
		t.Fatal("too few schedule periods")
	}
	// Savings are positive everywhere and non-decreasing with period.
	for i, row := range r.Rows {
		if row.EnergySavingPct <= 0 {
			t.Errorf("period %.1f us: no energy saving (%.1f%%)", row.PeriodUS, row.EnergySavingPct)
		}
		if row.ResidencyPct < 0 || row.ResidencyPct > 100 {
			t.Errorf("period %.1f us: residency %.1f%%", row.PeriodUS, row.ResidencyPct)
		}
		if i > 0 && row.EnergySavingPct < r.Rows[i-1].EnergySavingPct-1e-9 {
			t.Errorf("savings should not fall with longer periods")
		}
	}
	if !strings.Contains(r.Format(), "DVFS") {
		t.Error("Format incomplete")
	}
}
