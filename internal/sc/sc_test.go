package sc

import (
	"errors"
	"math"
	"testing"

	"ivory/internal/ivr"
	"ivory/internal/tech"
	"ivory/internal/topology"

	"ivory/internal/numeric"
)

func mustAnalysis(t testing.TB, top *topology.Topology, err error) *topology.Analysis {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	an, err := top.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func baseConfig(t *testing.T) Config {
	t.Helper()
	top, err := topology.SeriesParallel(2, 1)
	an := mustAnalysis(t, top, err)
	return Config{
		Analysis: an,
		Node:     tech.MustLookup("32nm"),
		CapKind:  tech.MOSCap,
		VIn:      1.8,
		VOut:     0.8,
		CTotal:   50e-9,
		GTotal:   120,
		CDecap:   10e-9,
	}
}

func TestNewDefaultsAndValidation(t *testing.T) {
	cfg := baseConfig(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Config()
	if !numeric.ApproxEqual(got.Duty, 0.5, 0) || got.Interleave != 1 || !numeric.ApproxEqual(got.FSwMax, defaultFSwMax, 0) || !numeric.ApproxEqual(got.FSwMin, defaultFSwMin, 0) {
		t.Errorf("defaults not applied: %+v", got)
	}

	bad := cfg
	bad.Analysis = nil
	if _, err := New(bad); err == nil {
		t.Error("nil analysis must fail")
	}
	bad = cfg
	bad.Node = nil
	if _, err := New(bad); err == nil {
		t.Error("nil node must fail")
	}
	bad = cfg
	bad.VOut = 1.0 // above ideal 0.9
	if _, err := New(bad); err == nil {
		t.Error("VOut above ideal ratio must fail")
	}
	bad = cfg
	bad.CTotal = 0
	if _, err := New(bad); err == nil {
		t.Error("zero CTotal must fail")
	}
	bad = cfg
	bad.Duty = 1.5
	if _, err := New(bad); err == nil {
		t.Error("duty > 1 must fail")
	}
	bad = cfg
	bad.Interleave = -2
	if _, err := New(bad); err == nil {
		t.Error("negative interleave must fail")
	}
}

func TestCapacitorVoltageRating(t *testing.T) {
	// A 2:1 from 3.3 V puts 1.65 V on a MOS cap rated ~1 V at 32 nm: reject.
	cfg := baseConfig(t)
	cfg.VIn = 3.3
	cfg.VOut = 1.4
	if _, err := New(cfg); err == nil {
		t.Error("over-voltage MOS cap must be rejected")
	}
	// MIM caps are rated 3.3 V: accepted.
	cfg.CapKind = tech.MIMCap
	if _, err := New(cfg); err != nil {
		t.Errorf("MIM variant should pass: %v", err)
	}
}

func TestImpedanceFormulas(t *testing.T) {
	cfg := baseConfig(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	an := cfg.Analysis
	fsw := 100e6
	wantSSL := an.SumAC * an.SumAC / (cfg.CTotal * fsw)
	if math.Abs(d.RSSL(fsw)-wantSSL) > 1e-12 {
		t.Errorf("RSSL = %v, want %v", d.RSSL(fsw), wantSSL)
	}
	wantFSL := an.SumAR * an.SumAR / (cfg.GTotal * 0.5)
	if math.Abs(d.RFSL()-wantFSL) > 1e-12 {
		t.Errorf("RFSL = %v, want %v", d.RFSL(), wantFSL)
	}
	// RSSL halves when frequency doubles.
	if math.Abs(d.RSSL(2*fsw)-wantSSL/2) > 1e-12 {
		t.Error("RSSL must scale as 1/fsw")
	}
	// Total impedance is the quadrature sum.
	want := math.Hypot(wantSSL, wantFSL)
	if math.Abs(d.ROut(fsw)-want) > 1e-12 {
		t.Error("ROut must be sqrt(RSSL^2 + RFSL^2)")
	}
}

func TestRegulationFrequencyConsistency(t *testing.T) {
	cfg := baseConfig(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iLoad := 0.4
	fsw, err := d.RegulationFrequency(iLoad)
	if err != nil {
		t.Fatal(err)
	}
	// At the regulation frequency, droop must land V_out at the target.
	vOut := cfg.Analysis.Ratio*cfg.VIn - iLoad*d.ROut(fsw)
	if math.Abs(vOut-cfg.VOut) > 1e-6 {
		t.Errorf("regulated V_out = %v, want %v", vOut, cfg.VOut)
	}
	// Heavier load needs a higher frequency.
	fsw2, err := d.RegulationFrequency(2 * iLoad)
	if err != nil {
		t.Fatal(err)
	}
	if fsw2 <= fsw {
		t.Errorf("fsw should rise with load: %v -> %v", fsw, fsw2)
	}
	// Zero load settles at the floor.
	f0, err := d.RegulationFrequency(0)
	if err != nil || !numeric.ApproxEqual(f0, d.Config().FSwMin, 0) {
		t.Errorf("zero-load frequency: %v, %v", f0, err)
	}
}

func TestRegulationInfeasibleCases(t *testing.T) {
	cfg := baseConfig(t)
	cfg.GTotal = 0.5 // tiny switches: FSL dominates
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.RegulationFrequency(5)
	var inf *ivr.InfeasibleError
	if !errors.As(err, &inf) {
		t.Errorf("expected InfeasibleError, got %v", err)
	}

	// Tiny capacitance: frequency limit exceeded.
	cfg = baseConfig(t)
	cfg.CTotal = 5e-12
	d, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = d.RegulationFrequency(1.0); !errors.As(err, &inf) {
		t.Errorf("expected frequency-limit infeasibility, got %v", err)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	cfg := baseConfig(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Evaluate(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.VOut-cfg.VOut) > 1e-6 {
		t.Errorf("VOut = %v", m.VOut)
	}
	if m.Efficiency <= 0.5 || m.Efficiency >= 0.92 {
		t.Errorf("2:1 SC efficiency out of plausible band: %v", m.Efficiency)
	}
	// Efficiency can never exceed the ideal-ratio bound VOut/(M*VIn).
	bound := m.VOut / (cfg.Analysis.Ratio * cfg.VIn)
	if m.Efficiency > bound+1e-9 {
		t.Errorf("efficiency %v above ideal bound %v", m.Efficiency, bound)
	}
	if m.Loss.Conduction <= 0 || m.Loss.GateDrive <= 0 || m.Loss.Control <= 0 {
		t.Errorf("loss breakdown incomplete: %+v", m.Loss)
	}
	if m.AreaDie <= 0 {
		t.Error("area must be positive")
	}
	if m.RippleVpp <= 0 {
		t.Error("ripple must be positive under load")
	}
	if m.POut <= 0 || m.FSw <= 0 {
		t.Error("basic metrics missing")
	}
	if m.String() == "" {
		t.Error("String() empty")
	}
}

func TestEvaluateAtOpenLoop(t *testing.T) {
	cfg := baseConfig(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Higher frequency -> lower impedance -> higher open-loop V_out.
	var m1, m2, m ivr.Metrics
	if err := d.evaluateAt(&m1, 0.4, 50e6, d.RFSL()); err != nil {
		t.Fatal(err)
	}
	if err := d.evaluateAt(&m2, 0.4, 200e6, d.RFSL()); err != nil {
		t.Fatal(err)
	}
	if m2.VOut <= m1.VOut {
		t.Errorf("open-loop VOut should rise with fsw: %v -> %v", m1.VOut, m2.VOut)
	}
	if err := d.evaluateAt(&m, 0.4, 0, d.RFSL()); err == nil {
		t.Error("zero fsw must fail")
	}
	// Crushing load at low frequency collapses the output.
	if err := d.evaluateAt(&m, 100, 1e6, d.RFSL()); err == nil {
		t.Error("collapsed output must fail")
	}
}

func TestInterleavingReducesRipple(t *testing.T) {
	cfg := baseConfig(t)
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := cfg
	cfg8.Interleave = 8
	d8, err := New(cfg8)
	if err != nil {
		t.Fatal(err)
	}
	r1 := d1.Ripple(0.4, 100e6)
	r8 := d8.Ripple(0.4, 100e6)
	if math.Abs(r8-r1/8) > 1e-12 {
		t.Errorf("8-way interleave ripple %v, want %v", r8, r1/8)
	}
	// Static efficiency barely changes with interleaving (same totals, a
	// bit more clock distribution).
	m1, err1 := d1.Evaluate(0.4)
	m8, err8 := d8.Evaluate(0.4)
	if err1 != nil || err8 != nil {
		t.Fatal(err1, err8)
	}
	if math.Abs(m1.Efficiency-m8.Efficiency) > 0.02 {
		t.Errorf("interleaving changed efficiency too much: %v vs %v", m1.Efficiency, m8.Efficiency)
	}
}

// efficiencyCurve sweeps the output target from vLo to vHi at fixed load
// and returns the achieved V_out and efficiency of every feasible point.
func efficiencyCurve(cfg Config, iLoad, vLo, vHi float64, points int) (vout, eff []float64) {
	for k := 0; k < points; k++ {
		cfg.VOut = vLo + (vHi-vLo)*float64(k)/float64(points-1)
		d, err := New(cfg)
		if err != nil {
			continue
		}
		m, err := d.Evaluate(iLoad)
		if err != nil {
			continue
		}
		vout = append(vout, m.VOut)
		eff = append(eff, m.Efficiency)
	}
	return vout, eff
}

func TestEfficiencyPeaksNearIdealRatio(t *testing.T) {
	cfg := baseConfig(t)
	vout, eff := efficiencyCurve(cfg, 0.4, 0.3, 0.89, 40)
	if len(vout) < 10 {
		t.Fatalf("curve too short: %d points", len(vout))
	}
	// Efficiency should be increasing in V_out over most of the range
	// (the linear-like region the paper shows in Fig. 7).
	peakIdx := 0
	for i, e := range eff {
		if e > eff[peakIdx] {
			peakIdx = i
		}
	}
	if vout[peakIdx] < 0.75 {
		t.Errorf("peak efficiency at VOut=%v, expected near the 0.9 V ideal", vout[peakIdx])
	}
	// All points bounded by the ideal-ratio line.
	for i := range vout {
		bound := vout[i] / (cfg.Analysis.Ratio * cfg.VIn)
		if eff[i] > bound+1e-9 {
			t.Errorf("point %d: efficiency %v above bound %v", i, eff[i], bound)
		}
	}
}

func TestGTotalForAreaRoundTrip(t *testing.T) {
	cfg := baseConfig(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	area := 0.0
	for i, dev := range d.plan.devs {
		area += float64(d.plan.stacks[i]) * dev.Area(d.width(i))
	}
	if area <= 0 {
		t.Fatal("switch area must be positive")
	}
	plan, err := PlanSwitches(cfg.Analysis, cfg.Node, cfg.VIn)
	if err != nil {
		t.Fatal(err)
	}
	g, err := plan.GTotalForArea(area)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-cfg.GTotal)/cfg.GTotal > 1e-9 {
		t.Errorf("round trip GTotal = %v, want %v", g, cfg.GTotal)
	}
	if _, err := plan.GTotalForArea(0); err == nil {
		t.Error("zero area must fail")
	}
}

func TestHigherCapDensityHelpsEfficiency(t *testing.T) {
	// With deep-trench caps the same area affords more capacitance, so at
	// equal CTotal the trench design runs at the same frequency but the
	// paper's area-constrained story is: for the same area, trench gives
	// lower f_sw and higher efficiency. Emulate by comparing equal-area
	// designs.
	cfg := baseConfig(t)
	node := cfg.Node
	mos, _ := node.Capacitor(tech.MOSCap)
	dt, _ := node.Capacitor(tech.DeepTrench)
	area := mos.Area(cfg.CTotal)
	cfgTrench := cfg
	cfgTrench.CapKind = tech.DeepTrench
	cfgTrench.CTotal = dt.DensityFPerM2 * area
	dMOS, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dTrench, err := New(cfgTrench)
	if err != nil {
		t.Fatal(err)
	}
	mM, err1 := dMOS.Evaluate(0.4)
	mT, err2 := dTrench.Evaluate(0.4)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if mT.FSw >= mM.FSw {
		t.Errorf("trench design should regulate at lower fsw: %v vs %v", mT.FSw, mM.FSw)
	}
	if mT.Efficiency <= mM.Efficiency {
		t.Errorf("trench design should be more efficient at equal area: %v vs %v",
			mT.Efficiency, mM.Efficiency)
	}
}

func TestThreeToOneFromBoardVoltage(t *testing.T) {
	// The case-study configuration: 3:1 SC from 3.3 V targeting ~1 V.
	top, err := topology.SeriesParallel(3, 1)
	an := mustAnalysis(t, top, err)
	cfg := Config{
		Analysis: an,
		Node:     tech.MustLookup("45nm"),
		CapKind:  tech.DeepTrench, // fly caps hold only Vin/3
		VIn:      3.3,
		VOut:     1.0,
		CTotal:   400e-9,
		GTotal:   600,
		CDecap:   20e-9,
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Evaluate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Efficiency < 0.55 || m.Efficiency > 0.92 {
		t.Errorf("3:1 efficiency out of band: %v", m.Efficiency)
	}
}
