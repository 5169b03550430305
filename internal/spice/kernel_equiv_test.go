package spice

// Equivalence suite for the structure-aware kernel overhaul: the
// production Tran path (symbolic-once sparse LU, switch-bitmask state
// cache, allocation-free stepping) must reproduce the dense reference
// implementations in denseref_test.go within 1e-9 relative tolerance on
// every committed netlist family, including the switch-toggle and
// singular-matrix paths.

import (
	"math"
	"strings"
	"testing"
)

const equivTol = 1e-9

func buildBuckT(t *testing.T) *Circuit {
	t.Helper()
	c, err := BuildBuck(BuckOptions{
		VIn: 3.3, Duty: 0.4, FSw: 20e6,
		L: 100e-9, RL: 0.05, COut: 1e-6,
		RHigh: 0.05, RLow: 0.05,
		ILoad: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// compareTran checks two transient results for step-count identity and
// waveform agreement within the relative tolerance (normalized per
// waveform by its reference peak).
func compareTran(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Steps != want.Steps || len(got.Times) != len(want.Times) {
		t.Fatalf("shape mismatch: %d/%d steps, %d/%d samples",
			got.Steps, want.Steps, len(got.Times), len(want.Times))
	}
	if got.Refactorizations != want.Refactorizations {
		t.Errorf("refactorizations %d, reference %d", got.Refactorizations, want.Refactorizations)
	}
	for k := range got.Times {
		//lint:ignore floatcmp both paths compute t = k*h identically; the time axis must match exactly
		if got.Times[k] != want.Times[k] {
			t.Fatalf("time axis diverged at %d: %v vs %v", k, got.Times[k], want.Times[k])
		}
	}
	check := func(kind, name string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s %q length %d vs %d", kind, name, len(g), len(w))
		}
		scale := 0.0
		for _, v := range w {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		if scale == 0 {
			scale = 1
		}
		for k := range g {
			if math.Abs(g[k]-w[k]) > equivTol*scale {
				t.Fatalf("%s %q diverged at sample %d: %v vs %v (tol %g rel)",
					kind, name, k, g[k], w[k], equivTol)
			}
		}
	}
	for name, w := range want.V {
		check("node", name, got.V[name], w)
	}
	for name, w := range want.SourceI {
		check("source", name, got.SourceI[name], w)
	}
}

func TestTranEquivalenceBuck(t *testing.T) {
	fsw := 20e6
	h, T := 1/(fsw*64), 40/fsw
	want, err := tranDenseRef(buildBuckT(t), h, T)
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildBuckT(t).Tran(h, T)
	if err != nil {
		t.Fatal(err)
	}
	compareTran(t, got, want)
	// Synchronous buck: exactly the high-side-on and low-side-on states.
	if got.Refactorizations != 2 {
		t.Errorf("buck factorized %d states, want 2", got.Refactorizations)
	}
}

func TestTranEquivalenceSC21(t *testing.T) {
	vin, fsw, iload := 2.0, 50e6, 0.2
	h, T := 1/(fsw*64), 40/fsw
	ref, _ := buildSC21(t, 10e-9, 100.0, vin, fsw, iload)
	want, err := tranDenseRef(ref, h, T)
	if err != nil {
		t.Fatal(err)
	}
	ckt, _ := buildSC21(t, 10e-9, 100.0, vin, fsw, iload)
	got, err := ckt.Tran(h, T)
	if err != nil {
		t.Fatal(err)
	}
	compareTran(t, got, want)
	// Two-phase clock with dead time: phase-1, phase-2, and all-open.
	if got.Refactorizations != 3 {
		t.Errorf("SC factorized %d states, want 3", got.Refactorizations)
	}
}

// An aperiodic toggle layered over a periodic clock walks through switch
// states that revisit the cache and force mid-run refactorizations.
func buildToggleCircuit() *Circuit {
	c := NewCircuit()
	c.V("vsrc", "vin", "0", DC(5))
	c.SW("s1", "vin", "mid", 0.1, DutyClock(10e6, 0.5, false))
	c.SW("s2", "mid", "out", 0.2, func(t float64) bool { return t > 2e-6 })
	c.R("r1", "mid", "0", 50)
	c.C("c1", "out", "0", 10e-9, 0)
	c.R("rload", "out", "0", 100)
	c.L("l1", "vin", "out", 1e-6, 0)
	return c
}

func TestTranEquivalenceSwitchToggle(t *testing.T) {
	h, T := 1e-9, 4e-6
	want, err := tranDenseRef(buildToggleCircuit(), h, T)
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildToggleCircuit().Tran(h, T)
	if err != nil {
		t.Fatal(err)
	}
	compareTran(t, got, want)
	if got.Refactorizations != 4 {
		t.Errorf("toggle circuit factorized %d states, want 4", got.Refactorizations)
	}
}

// The factor cache packs the switch state one bit per switch, eight to a
// key byte. Switch counts on both sides of a byte boundary, and past 64,
// must give the reference's waveforms and its count of distinct states.
// The last switch alone tells two of the three states apart, so a key
// that dropped its top bit would factorize one state too few.
func TestTranEquivalenceWideSwitchMask(t *testing.T) {
	build := func(n int) *Circuit {
		c := NewCircuit()
		c.V("vsrc", "vin", "0", DC(3))
		for i := 0; i < n-4; i++ {
			c.SW(nameOf("spar", i), "vin", "mid", 40, func(float64) bool { return true })
		}
		for i := 0; i < 3; i++ {
			c.SW(nameOf("sclk", i), "mid", "out", 2, DutyClock(5e6, 0.5, i%2 == 1))
		}
		c.SW(nameOf("sclk", 3), "mid", "out", 2, DutyClock(5e6, 0.25, true))
		c.C("c1", "out", "0", 5e-9, 0)
		c.R("rload", "out", "0", 20)
		return c
	}
	h, T := 2e-9, 2e-6
	for _, n := range []int{7, 8, 9, 16, 64, 65, 70} {
		want, err := tranDenseRef(build(n), h, T)
		if err != nil {
			t.Fatalf("%d switches: %v", n, err)
		}
		got, err := build(n).Tran(h, T)
		if err != nil {
			t.Fatalf("%d switches: %v", n, err)
		}
		compareTran(t, got, want)
		if got.Refactorizations != 3 {
			t.Errorf("%d switches: factorized %d states, want 3", n, got.Refactorizations)
		}
	}
}

// buildControlledCircuit mixes every element kind, with both terminals of
// the E and G sources off ground so each of their stamps counts.
func buildControlledCircuit(t *testing.T) *Circuit {
	t.Helper()
	c, err := ParseNetlist(strings.NewReader(`
V1 in 0 PULSE 0 1 100n 0.3
E1 amp m in 0 3
Rm m 0 5
G1 o3 o2 in m 5m
R1 amp x 10
L1 x out 1u ic=0.1
C1 out 0 10n ic=0.2
R2 out 0 50
C2 o2 0 1n
R3 o2 0 1k
R4 o3 0 2k
I1 out 0 PWL 0 0 1u 0.1 2u 0.05
S1 x 0 1 DUTY 5meg 0.4
S2 o2 out 2 CLK 5meg 2
`))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The controlled sources stamp off-diagonal, sign-sensitive entries that
// the converter netlists never exercise; the production assembler and the
// reference's own stamps must agree on every one of them.
func TestTranEquivalenceControlledSources(t *testing.T) {
	h, T := 1e-9, 4e-6
	want, err := tranDenseRef(buildControlledCircuit(t), h, T)
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildControlledCircuit(t).Tran(h, T)
	if err != nil {
		t.Fatal(err)
	}
	compareTran(t, got, want)
}

func nameOf(prefix string, i int) string {
	return prefix + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// Two ideal voltage sources in parallel produce duplicate branch rows —
// the singular path must fail identically in both implementations.
func TestTranSingularMatrix(t *testing.T) {
	build := func() *Circuit {
		c := NewCircuit()
		c.V("v1", "a", "0", DC(1))
		c.V("v2", "a", "0", DC(2))
		c.R("r1", "a", "0", 10)
		c.C("c1", "a", "0", 1e-9, 0)
		return c
	}
	if _, err := build().Tran(1e-9, 1e-7); err == nil {
		t.Fatal("parallel voltage sources must be singular")
	}
	if _, err := tranDenseRef(build(), 1e-9, 1e-7); err == nil {
		t.Fatal("reference accepts the singular circuit the kernel rejects")
	}
}

// The transient inner loop must be allocation-free: doubling the step
// count must not change the number of allocation events (only the sizes
// of the up-front waveform buffers).
func TestTranAllocsIndependentOfSteps(t *testing.T) {
	fsw := 20e6
	h := 1 / (fsw * 64)
	ckt := buildBuckT(t)
	run := func(cycles int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ckt.Tran(h, float64(cycles)/fsw); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := run(10)
	long := run(40)
	if long-short > 4 {
		t.Fatalf("allocations scale with steps: %v at 10 cycles vs %v at 40 (inner loop allocates)", short, long)
	}
}
