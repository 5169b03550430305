package sc

import (
	"fmt"
	"math"
	"testing"

	"ivory/internal/ivr"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// sweepAnalyses returns every conversion ratio the design-space sweep
// tries, built the way the sweep builds them: series-parallel for k:1 and
// k:(k-1), ladder otherwise.
func sweepAnalyses(t *testing.T) []*topology.Analysis {
	t.Helper()
	var out []*topology.Analysis
	for _, r := range [][2]int{{2, 1}, {3, 1}, {4, 1}, {5, 1}, {3, 2}, {4, 3}, {5, 4}, {5, 2}, {5, 3}, {7, 2}, {7, 3}, {8, 3}} {
		p, q := r[0], r[1]
		build := topology.Ladder
		if q == 1 || q == p-1 {
			build = topology.SeriesParallel
		}
		top, err := build(p, q)
		out = append(out, mustAnalysis(t, top, err))
	}
	return out
}

// planLoad is the load current (A) the seam tests evaluate at.
const planLoad = 0.3

// rawMetrics is ivr.Metrics without its String method, so %x reaches the
// fields and prints every float exactly (hex mantissa and exponent).
type rawMetrics ivr.Metrics

// outcome renders a sizing-and-evaluation result exactly: every metric's
// bits, or the full error text.
func outcome(d *Design, err error) string {
	if err != nil {
		return "new: " + err.Error()
	}
	m, err := d.Evaluate(planLoad)
	if err != nil {
		return "eval: " + err.Error()
	}
	return fmt.Sprintf("ok: %x", rawMetrics(m))
}

// TestPlanNewMatchesNew pins the hoist: over every node × VIn × sweep
// topology × cap kind × allocation policy, sizing against a prebuilt
// switch plan equals New bit for bit, infeasibility and error text
// included.
func TestPlanNewMatchesNew(t *testing.T) {
	ans := sweepAnalyses(t)
	planned, sized := 0, 0
	for _, name := range tech.Nodes() {
		node := tech.MustLookup(name)
		for _, vin := range []float64{1.2, 1.8, 3.3} {
			for _, an := range ans {
				plan, planErr := PlanSwitches(an, node, vin)
				for _, kind := range []tech.CapacitorKind{tech.DeepTrench, tech.MOSCap, tech.MIMCap} {
					for _, uniform := range []bool{false, true} {
						cfg := Config{
							Analysis: an, Node: node, CapKind: kind,
							VIn: vin, VOut: 0.9 * an.Ratio * vin,
							CTotal: 40e-9, GTotal: 90, CDecap: 5e-9,
							UniformSwitchAllocation: uniform,
						}
						want := outcome(New(cfg))
						if planErr != nil {
							if want[:3] == "ok:" {
								t.Errorf("%s on %s at %g V: PlanSwitches failed (%v) but New succeeded", an.Name, name, vin, planErr)
							}
							continue
						}
						planned++
						// Sizing twice from one plan also catches a design
						// that writes into the plan's shared slices.
						for range 2 {
							if got := outcome(plan.New(cfg)); got != want {
								t.Errorf("%s on %s at %g V, %v caps, uniform=%v:\n plan %s\n new  %s",
									an.Name, name, vin, kind, uniform, got, want)
							}
						}
						if want[:3] == "ok:" {
							sized++
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations planned, %d evaluated", planned, sized)
	if planned == 0 || sized == 0 {
		t.Fatalf("sweep too thin: %d planned, %d evaluated", planned, sized)
	}
}

// TestPlanRejectsMismatchedConfig: a plan sizes only configs of its own
// topology analysis, node and input voltage, down to the last bit of VIn.
func TestPlanRejectsMismatchedConfig(t *testing.T) {
	cfg := baseConfig(t)
	plan, err := PlanSwitches(cfg.Analysis, cfg.Node, cfg.VIn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.New(cfg); err != nil {
		t.Fatalf("matching config: %v", err)
	}
	top, err := topology.SeriesParallel(3, 1)
	other := mustAnalysis(t, top, err)
	for name, mut := range map[string]func(*Config){
		"analysis": func(c *Config) { c.Analysis = other; c.VOut = 0.5 },
		"node":     func(c *Config) { c.Node = tech.MustLookup("45nm") },
		"vin":      func(c *Config) { c.VIn = math.Nextafter(c.VIn, 2) },
	} {
		c := cfg
		mut(&c)
		if _, err := New(c); err != nil {
			t.Fatalf("%s: mutated config must be valid on its own: %v", name, err)
		}
		if _, err := plan.New(c); err == nil {
			t.Errorf("%s: plan accepted a config it was not built for", name)
		}
	}
	if _, err := PlanSwitches(nil, cfg.Node, cfg.VIn); err == nil {
		t.Error("PlanSwitches without an analysis must fail")
	}
}

// TestWithInterleaveMatchesNew: re-slicing a sized design equals sizing it
// with the interleave set from the start.
func TestWithInterleaveMatchesNew(t *testing.T) {
	cfg := baseConfig(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 7, 64} {
		c := cfg
		c.Interleave = n
		dn, err := d.WithInterleave(n)
		if got, want := outcome(dn, err), outcome(New(c)); got != want {
			t.Errorf("x%d:\n with %s\n new  %s", n, got, want)
		}
		if err != nil {
			t.Fatal(err)
		}
		if dn.Config().Interleave != n || d.Config().Interleave != 1 {
			t.Errorf("x%d: WithInterleave must change only the copy (copy x%d, original x%d)",
				n, dn.Config().Interleave, d.Config().Interleave)
		}
	}
	for _, n := range []int{0, -1} {
		if _, err := d.WithInterleave(n); err == nil {
			t.Errorf("WithInterleave(%d) must fail", n)
		}
	}
}
