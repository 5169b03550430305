package buck

import (
	"errors"
	"math"
	"testing"

	"ivory/internal/ivr"
	"ivory/internal/tech"
)

func baseConfig() Config {
	return Config{
		Node:       tech.MustLookup("45nm"),
		Inductor:   tech.IntegratedThinFilm,
		OutCap:     tech.DeepTrench,
		VIn:        3.3,
		VOut:       1.0,
		L:          6e-9,
		COut:       40e-9,
		FSw:        150e6,
		GHigh:      4,
		GLow:       6,
		Interleave: 4,
	}
}

func TestNewValidation(t *testing.T) {
	cfg := baseConfig()
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Node = nil
	if _, err := New(bad); err == nil {
		t.Error("nil node must fail")
	}
	bad = cfg
	bad.VOut = 3.5
	if _, err := New(bad); err == nil {
		t.Error("VOut above VIn must fail")
	}
	bad = cfg
	bad.L = 0
	if _, err := New(bad); err == nil {
		t.Error("zero L must fail")
	}
	bad = cfg
	bad.GHigh = 0
	if _, err := New(bad); err == nil {
		t.Error("zero conductance must fail")
	}
	bad = cfg
	bad.Interleave = -1
	if _, err := New(bad); err == nil {
		t.Error("negative interleave must fail")
	}
	// Defaults.
	def := cfg
	def.Interleave = 0
	d, err := New(def)
	if err != nil {
		t.Fatal(err)
	}
	if d.Config().Interleave != 1 {
		t.Error("interleave default not applied")
	}
}

func TestDutyCycleBehaviour(t *testing.T) {
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	d0 := d.Duty(0)
	if math.Abs(d0-1.0/3.3) > 1e-9 {
		t.Errorf("no-load duty = %v, want %v", d0, 1.0/3.3)
	}
	// Duty rises with load to cover conduction drops.
	if d.Duty(2) <= d0 {
		t.Error("duty must rise with load")
	}
}

func TestRippleScalesInverselyWithLAndF(t *testing.T) {
	cfg := baseConfig()
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.L = 2 * cfg.L
	d2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	i := 2.0
	if r1, r2 := d1.RippleCurrent(i), d2.RippleCurrent(i); r2 >= r1 {
		t.Errorf("doubling L should cut current ripple: %v -> %v", r1, r2)
	}
	cfg3 := cfg
	cfg3.FSw = 2 * cfg.FSw
	d3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if r1, r3 := d1.RippleCurrent(i), d3.RippleCurrent(i); r3 >= r1 {
		t.Errorf("doubling fsw should cut current ripple: %v -> %v", r1, r3)
	}
}

func TestInterleaveReducesVoltageRipple(t *testing.T) {
	cfg := baseConfig()
	cfg.Interleave = 1
	cfg.GHigh, cfg.GLow = 8, 12 // keep per-phase current sane
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := cfg
	cfg4.Interleave = 4
	d4, err := New(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	i := 1.5
	r1 := d1.RippleVoltage(i)
	r4 := d4.RippleVoltage(i)
	if r4 >= r1/4 {
		t.Errorf("4-phase ripple %v should be well below single-phase %v", r4, r1)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Evaluate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Efficiency <= 0.4 || m.Efficiency >= 0.95 {
		t.Errorf("buck efficiency out of band: %v", m.Efficiency)
	}
	if m.Loss.Magnetic <= 0 || m.Loss.Conduction <= 0 || m.Loss.GateDrive <= 0 {
		t.Errorf("loss breakdown incomplete: %+v", m.Loss)
	}
	if m.AreaDie <= 0 {
		t.Error("die area must be positive for integrated inductor")
	}
	if m.AreaBoard != 0 {
		t.Error("integrated design must have zero board area")
	}
	if m.RippleVpp <= 0 {
		t.Error("ripple must be positive")
	}
}

func TestCCMBoundaryEnforced(t *testing.T) {
	cfg := baseConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Very light load with big ripple: DCM.
	_, err = d.Evaluate(0.05)
	var inf *ivr.InfeasibleError
	if !errors.As(err, &inf) {
		t.Errorf("expected DCM infeasibility, got %v", err)
	}
	cfgDCM := cfg
	cfgDCM.AllowDCM = true
	dd, err := New(cfgDCM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dd.Evaluate(0.05); err != nil {
		t.Errorf("AllowDCM should permit light load: %v", err)
	}
}

func TestInductorSaturationEnforced(t *testing.T) {
	cfg := baseConfig()
	cfg.Interleave = 1
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Evaluate(5.0) // > 2.5 A thin-film saturation
	var inf *ivr.InfeasibleError
	if !errors.As(err, &inf) {
		t.Errorf("expected saturation infeasibility, got %v", err)
	}
}

func TestSurfaceMountUsesBoardArea(t *testing.T) {
	cfg := baseConfig()
	cfg.Inductor = tech.SurfaceMount
	cfg.L = 400e-9
	cfg.FSw = 3e6
	cfg.COut = 5e-6
	cfg.OutCap = tech.MIMCap
	cfg.Interleave = 1
	cfg.GHigh, cfg.GLow = 20, 30
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Evaluate(3.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.AreaBoard <= 0 {
		t.Error("surface-mount inductor must consume board area")
	}
	// Off-chip-style buck at low frequency should be quite efficient.
	if m.Efficiency < 0.8 {
		t.Errorf("VRM-class buck efficiency too low: %v", m.Efficiency)
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

func TestEfficiencyRelativelyFlatAcrossVOut(t *testing.T) {
	// The buck's defining property vs SC: broadly flat efficiency across
	// the output range (paper §2.1).
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err = d.OptimizeConductances(2.0)
	if err != nil {
		t.Fatal(err)
	}
	vout, eff := efficiencyCurve(d.Config(), 2.0, 0.8, 1.4, 10)
	if len(eff) < 8 {
		t.Fatalf("curve too short: %d", len(eff))
	}
	mn, mx := eff[0], eff[0]
	for _, e := range eff {
		if e < mn {
			mn = e
		}
		if e > mx {
			mx = e
		}
	}
	if mx-mn > 0.2 {
		t.Errorf("buck efficiency swings too much across VOut: [%v, %v] over %v..%v",
			mn, mx, vout[0], vout[len(vout)-1])
	}
	// No efficiency cliff anywhere in the range: all points feasible.
	if len(vout) != 10 {
		t.Errorf("buck should have no infeasible cliff in-range: %d/10 points", len(vout))
	}
}

func TestOptimizeConductances(t *testing.T) {
	cfg := baseConfig()
	cfg.GHigh, cfg.GLow = 0.3, 0.3 // deliberately bad
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := d.Evaluate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	dOpt, err := d.OptimizeConductances(2.0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := dOpt.Evaluate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Efficiency <= m0.Efficiency {
		t.Errorf("optimized conductances should improve efficiency: %v -> %v",
			m0.Efficiency, m1.Efficiency)
	}
	if _, err := d.OptimizeConductances(0); err == nil {
		t.Error("zero load must fail")
	}
}

func TestFrequencyDependentInductance(t *testing.T) {
	cfg := baseConfig()
	dLow, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgHi := cfg
	cfgHi.FSw = 800e6
	dHi, err := New(cfgHi)
	if err != nil {
		t.Fatal(err)
	}
	if dHi.LEff() >= dLow.LEff() {
		t.Errorf("L_eff should roll off with frequency: %v vs %v", dHi.LEff(), dLow.LEff())
	}
}
