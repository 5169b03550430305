package pdn

import (
	"context"
	"math"
	"testing"

	"ivory/internal/numeric"
)

func typical(t *testing.T) *Network {
	t.Helper()
	n, err := TypicalOffChip(100e-9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty ladder must fail")
	}
	if _, err := New(Stage{Name: "x", R: 0, L: 1e-9, C: 1e-6}); err == nil {
		t.Error("zero R must fail")
	}
	if _, err := New(Stage{Name: "x", R: 1e-3, L: 1e-9, C: 1e-6, ESR: -1}); err == nil {
		t.Error("negative ESR must fail")
	}
	if _, err := TypicalOffChip(0, 1e-3); err == nil {
		t.Error("zero die decap must fail")
	}
	if _, err := TypicalOffChip(1e-9, 0); err == nil {
		t.Error("zero grid R must fail")
	}
}

func TestStagesCopied(t *testing.T) {
	stages := []Stage{{Name: "x", R: 1e-3, L: 1e-9, C: 1e-6, ESR: 1e-3}}
	n, err := New(stages...)
	if err != nil {
		t.Fatal(err)
	}
	stages[0].R = 999
	if numeric.ApproxEqual(n.TotalR(), 999, 0) {
		t.Error("New must copy the ladder")
	}
}

// transient runs TransientContext without cancellation or buffer reuse.
func transient(t *testing.T, n *Network, vSrc float64, iLoad func(float64) float64, dt, T float64) (ts, vs []float64) {
	t.Helper()
	ts, vs, err := n.TransientContext(context.Background(), vSrc, iLoad, dt, T, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ts, vs
}

// stepAt returns a load that steps from i0 to i1 at tStep.
func stepAt(tStep, i0, i1 float64) func(float64) float64 {
	return func(t float64) float64 {
		if t < tStep {
			return i0
		}
		return i1
	}
}

// firstDroop returns the time (from the step) and depth below the final DC
// level of the deepest load-node voltage after a load step at tStep.
func firstDroop(ts, vs []float64, tStep, vFinal float64) (at, depth float64) {
	for i, v := range vs {
		if ts[i] >= tStep && vFinal-v > depth {
			at, depth = ts[i]-tStep, vFinal-v
		}
	}
	return at, depth
}

// The impedance tests below read the ladder's load-port impedance off the
// time-domain response: the DC and low-frequency limits from steady and
// slowly varying loads, the high-frequency limit from the instant after a
// load step, and the anti-resonance from the first droop.

func TestImpedanceDCEqualsTotalR(t *testing.T) {
	n := typical(t)
	_, vs := transient(t, n, 1, func(float64) float64 { return 3 }, 1e-9, 1e-6)
	for _, v := range vs {
		if z := (1 - v) / 3; math.Abs(z-n.TotalR())/n.TotalR() > 1e-9 {
			t.Fatalf("DC drop per ampere %v, want total R %v", z, n.TotalR())
		}
	}
}

func TestImpedanceLowFrequencyLimit(t *testing.T) {
	n := typical(t)
	// A 1 kHz load swing sees the decaps nearly open: the voltage swing
	// per ampere approaches the series resistance. The second period is
	// past the start-up transient.
	const f, amp = 1e3, 1.0
	ts, vs := transient(t, n, 1, func(t float64) float64 { return 2 + amp*math.Sin(2*math.Pi*f*t) }, 100e-9, 2/f)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range vs {
		if ts[i] >= 1/f {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if z := (hi - lo) / (2 * amp); math.Abs(z-n.TotalR())/n.TotalR() > 0.05 {
		t.Errorf("|Z(1 kHz)| = %v, want ~%v", z, n.TotalR())
	}
}

func TestImpedanceHighFrequencyDecapShunt(t *testing.T) {
	n := typical(t)
	// The inductors hold their currents through a fast load edge, so the
	// die decap alone supplies it: the first step's drop per ampere is
	// the die ESR, to within the cap's charge over one step.
	const dt = 1e-12
	_, vs := transient(t, n, 1, stepAt(dt/2, 1, 4), dt, 10*dt)
	die := n.stages[2]
	if z := (vs[0] - vs[1]) / 3; math.Abs(z-die.ESR) > 0.1*die.ESR {
		t.Errorf("edge drop per ampere %v, expected near die ESR %v", z, die.ESR)
	}
}

func TestResonancePeakExists(t *testing.T) {
	n := typical(t)
	const tStep = 10e-9
	ts, vs := transient(t, n, 1, stepAt(tStep, 0.5, 5), 0.1e-9, 400e-9)
	at, depth := firstDroop(ts, vs, tStep, 1-5*n.TotalR())
	if depth <= 0 {
		t.Fatalf("no anti-resonance: the step never droops below its final DC level")
	}
	// The first droop is half a period of the die-decap/package-inductance
	// resonance, which lands in the tens-to-hundreds of MHz.
	if f := 1 / (2 * at); f < 1e6 || f > 1e9 {
		t.Errorf("resonance at %v Hz outside plausible band", f)
	}
}

func TestMoreDieDecapLowersResonanceFrequency(t *testing.T) {
	var at, depth [2]float64
	for i, decap := range []float64{50e-9, 500e-9} {
		n, err := TypicalOffChip(decap, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		const tStep = 10e-9
		ts, vs := transient(t, n, 1, stepAt(tStep, 0.5, 5), 0.1e-9, 400e-9)
		at[i], depth[i] = firstDroop(ts, vs, tStep, 1-5*n.TotalR())
	}
	if at[1] <= at[0] {
		t.Errorf("more decap should lower the resonance: first droop at %v -> %v s", at[0], at[1])
	}
	if depth[1] >= depth[0] {
		t.Errorf("more decap should damp the peak: %v -> %v V", depth[0], depth[1])
	}
}

func TestTransientDCSteadyState(t *testing.T) {
	n := typical(t)
	vSrc := 1.0
	iLoad := func(t float64) float64 { return 2.0 }
	ts, vs, err := n.TransientContext(context.Background(), vSrc, iLoad, 1e-9, 2e-6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := vSrc - 2.0*n.TotalR()
	// Starts and stays at DC steady state.
	for i := range ts {
		if math.Abs(vs[i]-want) > 1e-6 {
			t.Fatalf("t=%v: v=%v, want steady %v", ts[i], vs[i], want)
		}
	}
}

func TestTransientStepDroopAndRecovery(t *testing.T) {
	n := typical(t)
	vSrc := 1.0
	step := func(t float64) float64 {
		if t < 200e-9 {
			return 0.5
		}
		return 5.0
	}
	_, vs, err := n.TransientContext(context.Background(), vSrc, step, 0.2e-9, 10e-6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vMin := vs[0]
	for _, v := range vs {
		if v < vMin {
			vMin = v
		}
	}
	vFinalDC := vSrc - 5.0*n.TotalR()
	// The droop must overshoot below the final DC level (first droop), but
	// stay physical (not below, say, 100x the IR drop).
	if vMin >= vFinalDC-1e-6 {
		t.Errorf("no dynamic droop: min %v vs final DC %v", vMin, vFinalDC)
	}
	if vMin < vSrc-0.5 {
		t.Errorf("droop implausibly deep: %v", vMin)
	}
	// Settles near final DC at the end.
	vEnd := vs[len(vs)-1]
	if math.Abs(vEnd-vFinalDC) > 2e-3 {
		t.Errorf("did not settle: %v vs %v", vEnd, vFinalDC)
	}
}

func TestTransientInvalidArgs(t *testing.T) {
	n := typical(t)
	if _, _, err := n.TransientContext(context.Background(), 1, func(float64) float64 { return 0 }, 0, 1e-6, nil, nil); err == nil {
		t.Error("zero dt must fail")
	}
	if _, _, err := n.TransientContext(context.Background(), 1, func(float64) float64 { return 0 }, 1e-9, 0, nil, nil); err == nil {
		t.Error("zero T must fail")
	}
}

func TestStateSpaceDimensions(t *testing.T) {
	n := typical(t)
	a, b, c, d := n.StateSpace()
	k := len(n.stages)
	if a.Rows != 2*k || a.Cols != 2*k {
		t.Errorf("A is %dx%d, want %dx%d", a.Rows, a.Cols, 2*k, 2*k)
	}
	if b.Rows != 2*k || b.Cols != 2 {
		t.Errorf("B is %dx%d", b.Rows, b.Cols)
	}
	if len(c) != 2*k || len(d) != 2 {
		t.Errorf("C/D lengths %d/%d", len(c), len(d))
	}
}
