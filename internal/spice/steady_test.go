package spice

import (
	"math"
	"math/cmplx"
	"testing"
)

// The tests in this file read the DC operating point and the small-signal
// frequency response off the transient analysis: the last sample of a run
// long against the circuit's time constants is its operating point, and a
// unit sine drive settles into the sinusoidal steady state an AC analysis
// would compute directly.

// settled runs c through a transient of span T at 1000 steps and returns
// the last sample of node.
func settled(t *testing.T, c *Circuit, T float64, node string) float64 {
	t.Helper()
	res, err := c.Tran(T/1000, T)
	if err != nil {
		t.Fatal(err)
	}
	return res.At(node, len(res.Times)-1)
}

// sine is a unit-amplitude source at frequency f.
func sine(f float64) Waveform {
	return func(t float64) float64 { return math.Sin(2 * math.Pi * f * t) }
}

// acResponse drives the circuit build returns (its source driven by a unit
// sine at f) for settle whole periods plus two more, at 200 steps per
// period, and returns node's complex amplitude at f over the last two
// periods, relative to the drive's phase.
func acResponse(t *testing.T, build func(Waveform) *Circuit, node string, f float64, settle int) complex128 {
	t.Helper()
	const perPeriod = 200
	periods := settle + 2
	res, err := build(sine(f)).Tran(1/(f*perPeriod), float64(periods)/f)
	if err != nil {
		t.Fatal(err)
	}
	v := res.V[node]
	var re, im float64
	last := len(res.Times) - 1
	for k := last - 2*perPeriod + 1; k <= last; k++ {
		w := 2 * math.Pi * f * res.Times[k]
		re += v[k] * math.Sin(w)
		im += v[k] * math.Cos(w)
	}
	return complex(re, im) / perPeriod
}

func TestOPDivider(t *testing.T) {
	c := NewCircuit()
	c.V("v1", "a", "0", DC(9))
	c.R("r1", "a", "b", 2000)
	c.R("r2", "b", "0", 1000)
	res, err := c.Tran(1e-6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Times) - 1
	if v := res.At("b", last); math.Abs(v-3) > 1e-6 {
		t.Errorf("divider = %v, want 3", v)
	}
	if i := res.SourceI["v1"][last]; math.Abs(i-3e-3) > 1e-9 {
		t.Errorf("source current %v, want 3 mA", i)
	}
}

func TestOPCapacitorOpenInductorShort(t *testing.T) {
	c := NewCircuit()
	c.V("v1", "a", "0", DC(5))
	c.R("r1", "a", "b", 1000)
	c.C("c1", "b", "0", 1e-9, 0) // open at DC: no current path through it
	c.L("l1", "b", "c", 1e-6, 0) // short at DC
	c.R("r2", "c", "0", 1000)
	// Divider through r1-(L short)-r2: b = c = 2.5 V once the ~0.5 µs
	// cap charge has settled.
	b, cv := settled(t, c, 20e-6, "b"), settled(t, c, 20e-6, "c")
	if math.Abs(b-2.5) > 1e-3 || math.Abs(cv-2.5) > 1e-3 {
		t.Errorf("b=%v c=%v, want 2.5", b, cv)
	}
}

func TestOPCurrentSourceAndSwitch(t *testing.T) {
	build := func() *Circuit {
		c := NewCircuit()
		c.I("i1", "0", "a", DC(1e-3)) // 1 mA into node a
		c.R("r1", "a", "0", 1000)
		c.SW("s1", "a", "b", 1, func(float64) bool { return false })
		c.R("r2", "b", "0", 1000)
		return c
	}
	if v := settled(t, build(), 1e-6, "a"); math.Abs(v-1) > 1e-3 {
		t.Errorf("v(a) = %v, want 1", v)
	}
	if v := settled(t, build(), 1e-6, "b"); v > 1e-3 {
		t.Errorf("open switch leaked: v(b) = %v", v)
	}
}

func TestOPEmptyCircuit(t *testing.T) {
	c := NewCircuit()
	if _, err := c.Tran(1e-9, 1e-6); err == nil {
		t.Error("empty circuit must fail")
	}
}

func TestACVoltageDividerFlat(t *testing.T) {
	build := func(w Waveform) *Circuit {
		c := NewCircuit()
		c.V("vac", "a", "0", w)
		c.R("r1", "a", "b", 1000)
		c.R("r2", "b", "0", 1000)
		return c
	}
	for _, f := range []float64{10, 1e3, 1e6} {
		if h := acResponse(t, build, "b", f, 0); cmplx.Abs(h-0.5) > 1e-9 {
			t.Errorf("f=%v: divider = %v, want 0.5", f, h)
		}
	}
}

func TestACRCLowPassCorner(t *testing.T) {
	// RC low pass: -3 dB at f = 1/(2*pi*RC); magnitude 1/sqrt(2).
	r, cap := 1e3, 1e-9
	fc := 1 / (2 * math.Pi * r * cap)
	build := func(w Waveform) *Circuit {
		c := NewCircuit()
		c.V("vac", "a", "0", w)
		c.R("r1", "a", "b", r)
		c.C("c1", "b", "0", cap, 0)
		return c
	}
	// Settle for at least 20 RC time constants at each frequency.
	if h := acResponse(t, build, "b", fc/100, 1); math.Abs(cmplx.Abs(h)-1) > 1e-3 {
		t.Errorf("passband gain %v", cmplx.Abs(h))
	}
	h := acResponse(t, build, "b", fc, 4)
	if math.Abs(cmplx.Abs(h)-1/math.Sqrt2) > 1e-3 {
		t.Errorf("corner gain %v, want %v", cmplx.Abs(h), 1/math.Sqrt2)
	}
	// Phase at the corner is -45 degrees.
	if deg := cmplx.Phase(h) * 180 / math.Pi; math.Abs(deg+45) > 0.5 {
		t.Errorf("corner phase %v, want -45", deg)
	}
	if h := acResponse(t, build, "b", fc*100, 400); cmplx.Abs(h) > 0.02 {
		t.Errorf("stopband gain %v", cmplx.Abs(h))
	}
}

func TestACSeriesResonance(t *testing.T) {
	// Series RLC driven by current: node impedance dips to R at resonance.
	r, l, cap := 2.0, 1e-6, 1e-9
	f0 := 1 / (2 * math.Pi * math.Sqrt(l*cap))
	build := func(w Waveform) *Circuit {
		c := NewCircuit()
		c.I("iac", "0", "a", w)
		c.R("r1", "a", "b", r)
		c.L("l1", "b", "c", l, 0)
		c.C("c1", "c", "0", cap, 0)
		return c
	}
	// The ring-down time constant 2L/R is 1 µs; settle for ~15 of them.
	settle := func(f float64) int { return int(math.Ceil(15e-6 * f)) }
	if z := cmplx.Abs(acResponse(t, build, "a", f0, settle(f0))); math.Abs(z-r) > 0.05*r {
		t.Errorf("resonant impedance %v, want ~%v", z, r)
	}
	for _, f := range []float64{f0 / 10, f0 * 10} {
		if z := cmplx.Abs(acResponse(t, build, "a", f, settle(f))); z < 5*r {
			t.Errorf("f=%v: off-resonance impedance %v should be much larger than %v", f, z, r)
		}
	}
}

func TestControlledSourcesInAC(t *testing.T) {
	// VCCS into a capacitor forms an integrator: |H| falls as 1/f.
	build := func(w Waveform) *Circuit {
		c := NewCircuit()
		c.V("vac", "in", "0", w)
		c.G("g1", "0", "out", "in", "0", 1e-3) // current INTO out
		c.C("c1", "out", "0", 1e-9, 0)
		c.R("rbig", "out", "0", 1e9)
		return c
	}
	h1 := cmplx.Abs(acResponse(t, build, "out", 1e3, 0))
	h2 := cmplx.Abs(acResponse(t, build, "out", 1e4, 0))
	if math.Abs(h1/h2-10) > 0.2 {
		t.Errorf("integrator slope wrong: %v / %v", h1, h2)
	}
}
