package sc

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ivory/internal/ivr"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// sweepAnalyses returns every conversion ratio the design-space sweep
// tries, built the way the sweep builds them: series-parallel for k:1 and
// k:(k-1), ladder otherwise.
func sweepAnalyses(t testing.TB) []*topology.Analysis {
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
func outcome(d *Design, err error) string { return outcomeAt(d, err, planLoad) }

// outcomeAt is outcome at load current iLoad.
func outcomeAt(d *Design, err error, iLoad float64) string {
	if err != nil {
		return "new: " + err.Error()
	}
	m, err := d.Evaluate(iLoad)
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
							if got := outcome(plan.newDesign(cfg)); got != want {
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
	if _, err := plan.newDesign(cfg); err != nil {
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
		if _, err := plan.newDesign(c); err == nil {
			t.Errorf("%s: plan accepted a config it was not built for", name)
		}
	}
	if _, err := PlanSwitches(nil, cfg.Node, cfg.VIn); err == nil {
		t.Error("PlanSwitches without an analysis must fail")
	}
}

// TestInterleaveMatchesNew: the explorer's ripple fix-up re-scores a
// configuration with Config.Interleave = n and then sizes it with the
// plan. Both equal New with the interleave set from the start, and the
// interleave moves only the control loss, the efficiency, the ripple and
// the area. Rescore recomputes just those four in place, so it must equal
// a fresh Score at n, design included, from the interleave-1 design and
// from one already re-scored to another phase count.
func TestInterleaveMatchesNew(t *testing.T) {
	cfg := baseConfig(t)
	plan, err := PlanSwitches(cfg.Analysis, cfg.Node, cfg.VIn)
	if err != nil {
		t.Fatal(err)
	}
	var d1 Design
	var x1 ivr.Metrics
	if !plan.Score(&d1, &x1, &cfg, planLoad) {
		t.Fatal("base config rejected")
	}
	chain, chainM := d1, x1
	for _, n := range []int{1, 2, 7, 64, 3, 1} {
		c := cfg
		c.Interleave = n
		want := outcome(New(c))
		dn, err := plan.newDesign(c)
		if got := outcome(dn, err); got != want {
			t.Errorf("x%d:\n plan %s\n new  %s", n, got, want)
		}
		if err != nil {
			t.Fatal(err)
		}
		if dn.Config().Interleave != n {
			t.Errorf("x%d: sized design has interleave %d", n, dn.Config().Interleave)
		}
		var dn2 Design
		var m ivr.Metrics
		ok := plan.Score(&dn2, &m, &c, planLoad)
		if got := scoreOutcome(m, ok); got != want || !reflect.DeepEqual(dn2, *dn) {
			t.Errorf("x%d:\n score %s\n new   %s", n, got, want)
		}
		re, mr := d1, x1
		if got := scoreOutcome(mr, plan.Rescore(&re, &mr, n)); got != want || !reflect.DeepEqual(re, dn2) {
			t.Errorf("x%d:\n rescore %s\n new     %s", n, got, want)
		}
		if got := scoreOutcome(chainM, plan.Rescore(&chain, &chainM, n)); got != want || !reflect.DeepEqual(chain, dn2) {
			t.Errorf("x%d after re-scoring to other phase counts:\n rescore %s\n new     %s", n, got, want)
		}
		m.Loss.Control, m.Efficiency, m.RippleVpp, m.AreaDie = x1.Loss.Control, x1.Efficiency, x1.RippleVpp, x1.AreaDie
		if got, want := scoreOutcome(m, true), scoreOutcome(x1, true); got != want {
			t.Errorf("x%d: interleaving moved more than control loss, efficiency, ripple and area:\n x%d %s\n x1 %s", n, n, got, want)
		}
	}
	c := cfg
	c.Interleave = -1
	if _, err := plan.newDesign(c); err == nil {
		t.Error("interleave -1 must fail")
	}
	var d Design
	var m ivr.Metrics
	if plan.Score(&d, &m, &c, planLoad) {
		t.Error("scorer accepted interleave -1")
	}
	if plan.Rescore(&d1, &x1, -1) {
		t.Error("Rescore accepted interleave -1")
	}
}

// rejectionBranches maps a fragment of each sizing or evaluation error to
// the check that raised it.
var rejectionBranches = []struct{ branch, fragment string }{
	{"config validation", "sc: Config."},
	{"config validation", "must be positive"},
	{"config validation", "outside"},
	{"ideal output", "not below ideal output"},
	{"plan/config match", "does not match config"},
	{"capacitor rating", "rating of"},
	{"finite capacitance", "capacitor allocation"},
	{"finite switch width", "switch widths"},
	{"FSL bound", "below FSL bound"},
	{"FSwMax", "Hz limit"},
	{"finite f_sw", "regulation f_sw"},
	{"finite metrics", "metrics not finite"},
}

// rejectionBranch names the check behind a failed outcome string.
func rejectionBranch(t *testing.T, out string) string {
	t.Helper()
	for _, b := range rejectionBranches {
		if strings.Contains(out, b.fragment) {
			return b.branch
		}
	}
	t.Fatalf("unclassified rejection: %s", out)
	return ""
}

// scoreOutcome renders a Score result the way outcomeAt renders New and
// Evaluate.
func scoreOutcome(m ivr.Metrics, ok bool) string {
	if !ok {
		return "rejected"
	}
	return fmt.Sprintf("ok: %x", rawMetrics(m))
}

// TestScoreMatchesNewEvaluate pins the scorer to the materializing path:
// over every node × VIn × sweep topology × cap kind × capacitor share ×
// allocation policy × load, at interleave 1 and at the ripple-driven
// interleave the explorer would pick, Score accepts exactly what New plus
// Evaluate accepts, with the same design and metrics bit for bit, and
// Rescore of the interleave-1 design to the ripple-driven interleave
// equals Score at that interleave, design included. The regulation screen
// passes every accepted configuration and rejects every one that fails
// at the FSL bound or FSwMax. Hand-built configs reach the rejection
// branches the lattice does not.
func TestScoreMatchesNewEvaluate(t *testing.T) {
	const usable = 2e-6 // switch-plus-capacitor area (m²)
	ans := sweepAnalyses(t)
	hits := map[string]int{}
	accepted, screened := 0, 0
	score := func(plan *SwitchPlan, cfg Config, iLoad float64) (Design, ivr.Metrics, bool) {
		t.Helper()
		d, err := plan.newDesign(cfg)
		want := outcomeAt(d, err, iLoad)
		var sd Design
		var m ivr.Metrics
		ok := plan.Score(&sd, &m, &cfg, iLoad)
		regulates := plan.Regulates(cfg.VOut, cfg.CTotal, cfg.GTotal, cfg.FSwMax, iLoad, cfg.UniformSwitchAllocation)
		if !regulates && (ok || strings.HasPrefix(want, "ok:")) {
			t.Fatalf("%s on %s at %g V, %v caps, x%d, %g A: screened out, but Score or New and Evaluate accept it",
				cfg.Analysis.Name, cfg.Node.Name, cfg.VIn, cfg.CapKind, cfg.Interleave, iLoad)
		}
		if got := scoreOutcome(m, ok); ok != strings.HasPrefix(want, "ok:") || (ok && got != want) {
			t.Fatalf("%s on %s at %g V, %v caps, x%d, %g A:\n score %s\n new   %s",
				cfg.Analysis.Name, cfg.Node.Name, cfg.VIn, cfg.CapKind, cfg.Interleave, iLoad, got, want)
		}
		if ok && !reflect.DeepEqual(sd, *d) {
			t.Fatalf("%s on %s at %g V, %v caps, x%d, %g A: scored design\n%+v\nnew design\n%+v",
				cfg.Analysis.Name, cfg.Node.Name, cfg.VIn, cfg.CapKind, cfg.Interleave, iLoad, sd, *d)
		}
		if ok {
			accepted++
			return sd, m, ok
		}
		b := rejectionBranch(t, want)
		hits[b]++
		// The screen runs the regulation arithmetic itself, so it misses
		// none of the rejections at the FSL bound or at FSwMax.
		if (b == "FSL bound" || b == "FSwMax") && regulates {
			t.Fatalf("%s on %s at %g V, %v caps, x%d, %g A: the screen passes a configuration rejected at the %s",
				cfg.Analysis.Name, cfg.Node.Name, cfg.VIn, cfg.CapKind, cfg.Interleave, iLoad, b)
		}
		if !regulates {
			screened++
		}
		return sd, m, ok
	}
	for _, name := range tech.Nodes() {
		node := tech.MustLookup(name)
		for _, vin := range []float64{1.2, 1.8, 3.3} {
			for _, an := range ans {
				plan, err := PlanSwitches(an, node, vin)
				if err != nil {
					continue
				}
				for _, kind := range []tech.CapacitorKind{tech.DeepTrench, tech.MOSCap, tech.MIMCap} {
					capOpt, err := node.Capacitor(kind)
					if err != nil {
						continue
					}
					for _, share := range []float64{0.5, 0.62, 0.74, 0.86, 0.97} {
						gTot, err := plan.GTotalForArea(usable * (1 - share))
						if err != nil {
							t.Fatal(err)
						}
						for _, uniform := range []bool{false, true} {
							cfg := Config{
								Analysis: an, Node: node, CapKind: kind,
								VIn: vin, VOut: 0.85 * an.Ratio * vin,
								CTotal:                  capOpt.DensityFPerM2 * usable * share * 0.9,
								GTotal:                  gTot,
								CDecap:                  capOpt.DensityFPerM2 * usable * share * 0.1,
								FSwMax:                  1e9,
								UniformSwitchAllocation: uniform,
							}
							for _, iLoad := range []float64{0.05, 0.5, 5} {
								d1, m, ok := score(plan, cfg, iLoad)
								if rippleMax := 0.01 * cfg.VOut; ok && m.RippleVpp > rippleMax {
									c := cfg
									c.Interleave = min(int(math.Ceil(m.RippleVpp/rippleMax)), 64)
									dn, mn, okn := score(plan, c, iLoad)
									mr := m
									okr := plan.Rescore(&d1, &mr, c.Interleave)
									if okr != okn || okn && (scoreOutcome(mr, okr) != scoreOutcome(mn, okn) || !reflect.DeepEqual(d1, dn)) {
										t.Fatalf("%s on %s at %g V, %v caps, x%d, %g A:\n rescore %s\n score   %s",
											c.Analysis.Name, c.Node.Name, c.VIn, c.CapKind, c.Interleave, iLoad, scoreOutcome(mr, okr), scoreOutcome(mn, okn))
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// Branches the explorer's lattice never reaches.
	base := baseConfig(t)
	plan, err := PlanSwitches(base.Analysis, base.Node, base.VIn)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.SeriesParallel(3, 1)
	other := mustAnalysis(t, top, err)
	for name, mut := range map[string]func(*Config){
		"nil analysis":    func(c *Config) { c.Analysis = nil },
		"zero VOut":       func(c *Config) { c.VOut = 0 },
		"zero CTotal":     func(c *Config) { c.CTotal = 0 },
		"duty":            func(c *Config) { c.Duty = 1.5 },
		"above ideal":     func(c *Config) { c.VOut = 0.95 },
		"other analysis":  func(c *Config) { c.Analysis, c.VOut = other, 0.5 },
		"infinite CTotal": func(c *Config) { c.CTotal = math.Inf(1) },
		"NaN GTotal":      func(c *Config) { c.GTotal = math.NaN() },
		"infinite f_sw":   func(c *Config) { c.CTotal, c.FSwMax = 1e-320, math.Inf(1) },
		"infinite decap":  func(c *Config) { c.CDecap = math.Inf(1) },
	} {
		c := base
		mut(&c)
		if _, _, ok := score(plan, c, planLoad); ok {
			t.Errorf("%s: scorer accepted an invalid config", name)
		}
	}
	t.Logf("%d accepted, %d screened out, rejections by branch: %v", accepted, screened, hits)
	if accepted == 0 {
		t.Error("no configuration accepted")
	}
	if screened == 0 {
		t.Error("the regulation screen rejected no configuration")
	}
	for _, b := range rejectionBranches {
		if hits[b.branch] == 0 {
			t.Errorf("no configuration reached the %s check", b.branch)
		}
	}
}

// TestQuietCollapseRejects covers the one check Score cannot reach through
// regulation: an output that collapses at an explicit frequency. A quiet
// design rejects it without an error value; a plain one explains it.
func TestQuietCollapseRejects(t *testing.T) {
	d, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var inf *ivr.InfeasibleError
	var m ivr.Metrics
	if err := d.evaluateAt(&m, 100, 1e6, d.RFSL()); !errors.As(err, &inf) || !strings.Contains(err.Error(), "output collapses") {
		t.Fatalf("evaluateAt = %v, want an output-collapse InfeasibleError", err)
	}
	q := *d
	q.quiet = true
	if err := q.evaluateAt(&m, 100, 1e6, q.RFSL()); err != errRejected {
		t.Fatalf("quiet evaluateAt = %v, want errRejected", err)
	}
}

// TestScoreAllocFree: screening, scoring and re-scoring allocate nothing,
// whether the configuration is accepted or rejected at the FSL bound, the
// FSwMax limit or the capacitor rating.
func TestScoreAllocFree(t *testing.T) {
	base := baseConfig(t)
	fsl, fswMax, rating := base, base, base
	fsl.GTotal = 0.5
	fswMax.CTotal = 1e-12
	rating.VIn = 3.3 // MOS caps on a 2:1 stage hold VIn/2
	for name, tc := range map[string]struct {
		cfg    Config
		branch string
	}{
		"accepted": {base, ""},
		"FSL":      {fsl, "below FSL bound"},
		"FSwMax":   {fswMax, "Hz limit"},
		"rating":   {rating, "rating of"},
	} {
		plan, err := PlanSwitches(tc.cfg.Analysis, tc.cfg.Node, tc.cfg.VIn)
		if err != nil {
			t.Fatal(err)
		}
		d, err := plan.newDesign(tc.cfg)
		out := outcome(d, err)
		if tc.branch == "" && !strings.HasPrefix(out, "ok:") || tc.branch != "" && !strings.Contains(out, tc.branch) {
			t.Fatalf("%s: config does not reach its branch: %s", name, out)
		}
		c := &tc.cfg
		if n := testing.AllocsPerRun(100, func() {
			_ = plan.Regulates(c.VOut, c.CTotal, c.GTotal, c.FSwMax, planLoad, c.UniformSwitchAllocation)
		}); n != 0 {
			t.Errorf("%s: Regulates allocates %v times per call, want 0", name, n)
		}
		var sd Design
		var m ivr.Metrics
		if n := testing.AllocsPerRun(100, func() { _ = plan.Score(&sd, &m, c, planLoad) }); n != 0 {
			t.Errorf("%s: Score allocates %v times per call, want 0", name, n)
		}
		if plan.Score(&sd, &m, c, planLoad) {
			if n := testing.AllocsPerRun(100, func() { _ = plan.Rescore(&sd, &m, 7) }); n != 0 {
				t.Errorf("%s: Rescore allocates %v times per call, want 0", name, n)
			}
		}
	}
}
