package sc

import (
	"testing"

	"ivory/internal/tech"
	"ivory/internal/topology"
)

func reconfigGears(t *testing.T) []*topology.Analysis {
	t.Helper()
	var out []*topology.Analysis
	for _, pq := range [][2]int{{2, 1}, {3, 2}} {
		top, err := topology.SeriesParallel(pq[0], pq[1])
		if err != nil {
			t.Fatal(err)
		}
		an, err := top.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, an)
	}
	return out
}

func reconfigBase() Config {
	return Config{
		Node:    tech.MustLookup("32nm"),
		CapKind: tech.DeepTrench,
		VIn:     1.8,
		VOut:    0.8, // placeholder; EvaluateAtVOut re-targets
		CTotal:  60e-9,
		GTotal:  150,
		CDecap:  15e-9,
	}
}

func TestReconfigurableConstruction(t *testing.T) {
	r, err := NewReconfigurable(reconfigBase(), reconfigGears(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.gears) != 2 {
		t.Fatalf("expected 2 gears, got %d", len(r.gears))
	}
	if _, err := NewReconfigurable(reconfigBase(), nil); err == nil {
		t.Error("no gears must fail")
	}
	// A base that no gear can satisfy.
	bad := reconfigBase()
	bad.VOut = 1.7
	if _, err := NewReconfigurable(bad, reconfigGears(t)); err == nil {
		t.Error("infeasible base must fail")
	}
}

// The defining behaviour: low targets select the 2:1 gear, high targets
// the 3:2 gear, and the envelope beats either single gear across the
// combined range.
func TestReconfigurableGearShifting(t *testing.T) {
	gears := reconfigGears(t)
	r, err := NewReconfigurable(reconfigBase(), gears)
	if err != nil {
		t.Fatal(err)
	}
	iLoad := 0.3
	// 0.8 V: only reachable efficiently by the 2:1 gear (ideal 0.9 V);
	// the 3:2 gear (ideal 1.2 V) would burn 0.4 V of droop.
	mLo, gLo, err := r.EvaluateAtVOut(0.80, iLoad)
	if err != nil {
		t.Fatal(err)
	}
	// 1.1 V: out of the 2:1 gear's range entirely.
	mHi, gHi, err := r.EvaluateAtVOut(1.10, iLoad)
	if err != nil {
		t.Fatal(err)
	}
	if gLo == gHi {
		t.Errorf("expected a gear shift between 0.8 V (gear %d) and 1.1 V (gear %d)", gLo, gHi)
	}
	if mLo.Efficiency <= 0.5 || mHi.Efficiency <= 0.5 {
		t.Errorf("gear efficiencies implausible: %v, %v", mLo.Efficiency, mHi.Efficiency)
	}
	// The shift point falls between the two targets.
	shifts := r.ShiftPoints(iLoad, 0.70, 1.15, 24)
	if len(shifts) == 0 {
		t.Fatal("no shift point found")
	}
	if shifts[0] < 0.75 || shifts[0] > 1.1 {
		t.Errorf("shift at %.3f V outside the expected window", shifts[0])
	}
}

// Envelope dominance: at every point the envelope is at least as good as
// each individual gear.
func TestReconfigurableEnvelopeDominates(t *testing.T) {
	gears := reconfigGears(t)
	r, err := NewReconfigurable(reconfigBase(), gears)
	if err != nil {
		t.Fatal(err)
	}
	iLoad := 0.3
	vout, eff, _ := r.EfficiencyEnvelope(iLoad, 0.7, 1.1, 16)
	if len(vout) < 10 {
		t.Fatalf("envelope too short: %d points", len(vout))
	}
	for i, v := range vout {
		for _, g := range r.gears {
			cfg := g.Config()
			cfg.VOut = v
			d, err := New(cfg)
			if err != nil {
				continue
			}
			m, err := d.Evaluate(iLoad)
			if err != nil {
				continue
			}
			if m.Efficiency > eff[i]+1e-9 {
				t.Errorf("v=%.3f: single gear %.4f beats envelope %.4f", v, m.Efficiency, eff[i])
			}
		}
	}
}

func TestReconfigurableInfeasiblePoint(t *testing.T) {
	r, err := NewReconfigurable(reconfigBase(), reconfigGears(t))
	if err != nil {
		t.Fatal(err)
	}
	// Above every gear's ideal output.
	if _, _, err := r.EvaluateAtVOut(1.5, 0.3); err == nil {
		t.Error("unreachable target must fail")
	}
}
