package spice

import (
	"math"
	"strings"
	"testing"

	"ivory/internal/numeric"
)

func TestResistorDividerDC(t *testing.T) {
	c := NewCircuit()
	c.V("v1", "a", "0", DC(10))
	c.R("r1", "a", "b", 1000)
	c.R("r2", "b", "0", 1000)
	res, err := c.Tran(1e-6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Avg("b", 0.5); math.Abs(got-5) > 1e-6 {
		t.Errorf("divider mid = %v, want 5", got)
	}
	// Source current: 10 V over 2 kohm.
	iw := res.SourceI["v1"]
	if math.Abs(iw[len(iw)-1]-5e-3) > 1e-9 {
		t.Errorf("source current = %v, want 5 mA", iw[len(iw)-1])
	}
}

func TestRCCharging(t *testing.T) {
	// v(t) = V(1 - e^{-t/RC}) from zero IC.
	r, cap := 1e3, 1e-9 // tau = 1us
	c := NewCircuit()
	c.V("v1", "a", "0", DC(1))
	c.R("r1", "a", "b", r)
	c.C("c1", "b", "0", cap, 0)
	res, err := c.Tran(1e-9, 5e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, chk := range []struct{ t, want float64 }{
		{1e-6, 1 - math.Exp(-1)},
		{2e-6, 1 - math.Exp(-2)},
		{5e-6, 1 - math.Exp(-5)},
	} {
		k := int(chk.t / 1e-9)
		got := res.At("b", k)
		if math.Abs(got-chk.want) > 2e-3 {
			t.Errorf("v(%g) = %v, want %v", chk.t, got, chk.want)
		}
	}
}

func TestCapacitorInitialCondition(t *testing.T) {
	c := NewCircuit()
	c.R("r1", "a", "0", 1e3)
	c.C("c1", "a", "0", 1e-9, 2.5)
	res, err := c.Tran(1e-9, 100e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.At("a", 0); math.Abs(got-2.5) > 1e-2 {
		t.Errorf("IC not honored: v(0) = %v, want 2.5", got)
	}
	// Discharging exponential.
	k := 50 // 50 ns, tau = 1 us
	want := 2.5 * math.Exp(-50e-9/1e-6)
	if got := res.At("a", k); math.Abs(got-want) > 2e-2 {
		t.Errorf("v(50ns) = %v, want %v", got, want)
	}
}

func TestRLCStepResponseFrequency(t *testing.T) {
	// Series RLC driven by a step: ringing frequency ~ 1/(2*pi*sqrt(LC)).
	l, cap := 1e-6, 1e-9 // f0 = 5.03 MHz
	c := NewCircuit()
	c.V("v1", "a", "0", DC(1))
	c.R("r1", "a", "b", 5) // underdamped
	c.L("l1", "b", "c", l, 0)
	c.C("c1", "c", "0", cap, 0)
	res, err := c.Tran(1e-9, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Find first two peaks of v(c).
	w := res.V["c"]
	var peaks []int
	for k := 1; k < len(w)-1; k++ {
		if w[k] > w[k-1] && w[k] >= w[k+1] && w[k] > 1.05 {
			peaks = append(peaks, k)
		}
	}
	if len(peaks) < 2 {
		t.Fatalf("expected ringing, found %d peaks", len(peaks))
	}
	period := res.Times[peaks[1]] - res.Times[peaks[0]]
	f := 1 / period
	f0 := 1 / (2 * math.Pi * math.Sqrt(l*cap))
	if math.Abs(f-f0)/f0 > 0.05 {
		t.Errorf("ringing at %v Hz, want ~%v Hz", f, f0)
	}
}

func TestInductorDCShort(t *testing.T) {
	// At DC an inductor is a short: final current = V/R.
	c := NewCircuit()
	c.V("v1", "a", "0", DC(2))
	c.R("r1", "a", "b", 10)
	c.L("l1", "b", "0", 1e-6, 0)
	res, err := c.Tran(1e-8, 5e-5) // 500 tau
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Avg("b", 0.1); math.Abs(got) > 1e-3 {
		t.Errorf("inductor node should sit at ~0 V, got %v", got)
	}
	iw := res.SourceI["v1"]
	if math.Abs(iw[len(iw)-1]-0.2) > 1e-3 {
		t.Errorf("final current %v, want 0.2 A", iw[len(iw)-1])
	}
}

func TestSwitchToggling(t *testing.T) {
	// A switch chopping a DC source into an RC filter: average ~ duty * V.
	c := NewCircuit()
	c.V("v1", "a", "0", DC(1))
	// Synchronous chopper: node b driven to 1 or 0 through equal 1-ohm
	// switches, filtered by R into C -> average settles at duty * V.
	c.SW("s1", "a", "b", 1, DutyClock(1e6, 0.3, false))
	c.SW("s2", "b", "0", 1, DutyClock(1e6, 0.3, true))
	c.R("r1", "b", "c", 100)
	c.C("c1", "c", "0", 1e-6, 0.3)
	res, err := c.Tran(1e-8, 2e-4)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Avg("c", 0.3)
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("chopped average = %v, want ~0.3", got)
	}
	if res.Refactorizations > 8 {
		t.Errorf("switch-state factorization cache ineffective: %d refactorizations", res.Refactorizations)
	}
}

func TestPWLAndPulseWaveforms(t *testing.T) {
	p := PWL([]float64{0, 1, 2}, []float64{0, 10, 0})
	if !numeric.ApproxEqual(p(0.5), 5, 0) || !numeric.ApproxEqual(p(1.5), 5, 0) || !numeric.ApproxEqual(p(3), 0, 0) {
		t.Error("PWL wrong")
	}
	q := Pulse(0, 1, 1e-6, 0.25)
	if !numeric.ApproxEqual(q(0.1e-6), 1, 0) || !numeric.ApproxEqual(q(0.5e-6), 0, 0) {
		t.Error("Pulse wrong")
	}
}

func TestTwoPhaseClockNonOverlap(t *testing.T) {
	fsw := 1e6
	p1 := TwoPhaseClock(fsw, 1, 0.02)
	p2 := TwoPhaseClock(fsw, 2, 0.02)
	for i := 0; i < 1000; i++ {
		tt := float64(i) * 1e-9
		if p1(tt) && p2(tt) {
			t.Fatalf("phases overlap at %v", tt)
		}
	}
	// Both phases actually conduct at some point.
	any1, any2 := false, false
	for i := 0; i < 1000; i++ {
		tt := float64(i) * 1e-9
		any1 = any1 || p1(tt)
		any2 = any2 || p2(tt)
	}
	if !any1 || !any2 {
		t.Error("phases never close")
	}
}

func TestValidationErrors(t *testing.T) {
	c := NewCircuit()
	c.R("r1", "a", "0", -5)
	if _, err := c.Tran(1e-9, 1e-6); err == nil {
		t.Error("negative resistance must fail")
	}
	c2 := NewCircuit()
	if _, err := c2.Tran(1e-9, 1e-6); err == nil {
		t.Error("empty circuit must fail")
	}
	c3 := NewCircuit()
	c3.R("r1", "a", "0", 5)
	if _, err := c3.Tran(0, 1e-6); err == nil {
		t.Error("zero step must fail")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, hT := range [][2]float64{
		{nan, 1e-6}, {1e-9, nan}, {nan, nan}, // NaN gets past h <= 0 and T < h
		{1e-9, inf}, {inf, inf}, {-inf, 1e-6},
		{1e-15, 1},          // 1e15 samples: would not fit in a slice
		{1, maxTranSamples}, // ceil(T/h)+1 = cap+1
	} {
		if _, err := c3.Tran(hT[0], hT[1]); err == nil {
			t.Errorf("Tran(h=%g, T=%g) must fail", hT[0], hT[1])
		}
	}
}

func TestEnergyConservationRC(t *testing.T) {
	// Charging a cap through a resistor from zero: the source delivers
	// Q*V, the cap stores C*V^2/2, the resistor burns the other half.
	c := NewCircuit()
	c.V("v1", "a", "0", DC(1))
	c.R("r1", "a", "b", 1e3)
	c.C("c1", "b", "0", 1e-9, 0)
	res, err := c.Tran(0.5e-9, 20e-6) // 20 tau: fully charged
	if err != nil {
		t.Fatal(err)
	}
	// Integrate source energy.
	e := 0.0
	iw := res.SourceI["v1"]
	for k := 1; k < len(iw); k++ {
		e += 1.0 * iw[k] * (res.Times[k] - res.Times[k-1])
	}
	want := 1e-9 * 1 * 1 // Q*V = C*V^2
	if math.Abs(e-want)/want > 0.01 {
		t.Errorf("source energy %v, want %v", e, want)
	}
}

func TestVCVSAmplifier(t *testing.T) {
	// Ideal x10 amplifier driving a load.
	c := NewCircuit()
	c.V("vin", "in", "0", DC(0.1))
	c.E("eamp", "out", "0", "in", "0", 10)
	c.R("rl", "out", "0", 1000)
	res, err := c.Tran(1e-9, 100e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Avg("out", 0.5); math.Abs(got-1.0) > 1e-6 {
		t.Errorf("VCVS transient output %v", got)
	}
}

func TestVCCSTransconductance(t *testing.T) {
	// gm = 10 mS sensing 0.2 V into a 1 kohm load: i = 2 mA, v = -2 V
	// (current a->b pulls node a down through the load).
	c := NewCircuit()
	c.V("vin", "in", "0", DC(0.2))
	c.G("g1", "out", "0", "in", "0", 10e-3)
	c.R("rl", "out", "0", 1000)
	if v := settled(t, c, 10e-9, "out"); math.Abs(v+2.0) > 1e-6 {
		t.Errorf("VCCS output %v, want -2.0", v)
	}
}

func TestVCVSFeedbackDivider(t *testing.T) {
	// Op-amp-style closed loop via VCVS with gain 1e5: non-inverting
	// follower of 0.5 V built from a divider reference.
	c := NewCircuit()
	c.V("vin", "ref", "0", DC(0.5))
	// error amp: out = A*(ref - fb)
	c.E("ea", "out", "0", "ref", "fb", 1e5)
	// unity feedback
	c.R("rf", "out", "fb", 1)
	c.R("rg", "fb", "0", 1e9)
	if v := settled(t, c, 10e-9, "out"); math.Abs(v-0.5) > 1e-3 {
		t.Errorf("follower output %v, want 0.5", v)
	}
}

func TestParseControlledSources(t *testing.T) {
	deck := `
V1 in 0 0.1
E1 out 0 in 0 10
R1 out 0 1k
G1 o2 0 in 0 5m
R2 o2 0 2k
`
	c, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if v := settled(t, c, 10e-9, "out"); math.Abs(v-1.0) > 1e-6 {
		t.Errorf("parsed VCVS wrong: %v", v)
	}
	if v := settled(t, c, 10e-9, "o2"); math.Abs(v+1.0) > 1e-6 {
		t.Errorf("parsed VCCS wrong: %v", v)
	}
	if _, err := ParseNetlist(strings.NewReader("E1 a 0 b")); err == nil {
		t.Error("short E card must fail")
	}
}
