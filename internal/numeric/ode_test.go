package numeric

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrapezoidalRCDischarge(t *testing.T) {
	// RC discharge: dv/dt = -v/(RC), compare against analytic solution.
	rc, h := 1e-6, 1e-8
	a := NewMatrixFrom([][]float64{{-1 / rc}})
	b := NewMatrix(1, 1)
	sys, err := NewLinearSystem(a, b, h)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1}
	u := []float64{0}
	steps := 100
	for i := 0; i < steps; i++ {
		sys.Step(x, u, u)
	}
	tEnd := float64(steps) * h
	want := math.Exp(-tEnd / rc)
	if math.Abs(x[0]-want) > 1e-4 {
		t.Errorf("v = %v, want %v", x[0], want)
	}
}

func TestTrapezoidalDrivenRC(t *testing.T) {
	// Step input through B: dv/dt = (u - v)/RC; final value must approach u.
	rc := 1e-6
	a := NewMatrixFrom([][]float64{{-1 / rc}})
	b := NewMatrixFrom([][]float64{{1 / rc}})
	sys, err := NewLinearSystem(a, b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0}
	u := []float64{2.5}
	for i := 0; i < 2000; i++ { // 20 time constants
		sys.Step(x, u, u)
	}
	if math.Abs(x[0]-2.5) > 1e-6 {
		t.Errorf("settled value %v, want 2.5", x[0])
	}
}

func TestTrapezoidalStiffStability(t *testing.T) {
	// Stiff system with tau=1ns integrated at h=1us: explicit methods would
	// explode; trapezoidal must stay bounded.
	a := NewMatrixFrom([][]float64{{-1e9}})
	b := NewMatrix(1, 1)
	sys, err := NewLinearSystem(a, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1}
	u := []float64{0}
	for i := 0; i < 100; i++ {
		sys.Step(x, u, u)
		if math.Abs(x[0]) > 1 {
			t.Fatalf("unstable at step %d: %v", i, x[0])
		}
	}
}

func TestLinearSystemShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := NewLinearSystem(a, NewMatrix(2, 1), 1e-6); err == nil {
		t.Error("expected error for non-square A")
	}
	sq := Identity(2)
	if _, err := NewLinearSystem(sq, NewMatrix(3, 1), 1e-6); err == nil {
		t.Error("expected error for B row mismatch")
	}
}

// refMulVec is the plain row-by-column product, summed in column order.
func refMulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * x[j]
		}
		out[i] = s
	}
	return out
}

// refStep is the three-mat-vec trapezoidal step Step must reproduce.
func refStep(s *LinearSystem, x, u0, u1 []float64) {
	rhs, b0, b1 := refMulVec(s.prop, x), refMulVec(s.bprop, u0), refMulVec(s.bprop, u1)
	for i := range x {
		x[i] = rhs[i] + b0[i] + b1[i]
	}
}

// TestLinearSystemStepMatchesThreeMatVecs steps a PDN ladder's state space
// through Step and through the reference side by side, bit for bit, with
// chained inputs (u0 = the previous u1, where Step reuses bprop·u1), with
// unchained ones, and with chains broken by a one-ulp or sign-of-zero
// change.
func TestLinearSystemStepMatchesThreeMatVecs(t *testing.T) {
	// A three-stage R-L ladder with shunt decaps, states [iL1..3, vC1..3],
	// inputs [V_src, I_load].
	a := NewMatrixFrom([][]float64{
		{-0.4e-3 / 1.2e-9, 0, 0, -1 / 1.2e-9, 0, 0},
		{0, -0.5e-3 / 80e-12, 0, 1 / 80e-12, -1 / 80e-12, 0},
		{0, 0, -1e-3 / 10e-12, 0, 1 / 10e-12, -1 / 10e-12},
		{1 / 300e-6, -1 / 300e-6, 0, 0, 0, 0},
		{0, 1 / 4e-6, -1 / 4e-6, 0, 0, 0},
		{0, 0, 1 / 50e-9, 0, 0, 0},
	})
	b := NewMatrixFrom([][]float64{
		{1 / 1.2e-9, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, -1 / 50e-9},
	})
	const dt = 1e-9
	rng := rand.New(rand.NewSource(26))
	load := func() float64 { return 10 + 5*rng.Float64() }
	for _, mode := range []string{"chained", "unchained", "broken"} {
		sys, err := NewLinearSystem(a, b, dt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewLinearSystem(a, b, dt)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{10, 10, 10, 0.99, 0.99, 0.98}
		xr := append([]float64(nil), x...)
		// The broken chains run from a zero source, so flipping u0's zero
		// to -0 changes its bits but not its value.
		src := 1.0
		if mode == "broken" {
			src = 0
		}
		u0, u1 := []float64{src, load()}, []float64{src, 0}
		for k := 0; k < 2000; k++ {
			u1[1] = load()
			switch {
			case mode == "unchained":
				u0[1] = load()
			case mode == "broken" && k%7 == 3:
				u0[1] = math.Nextafter(u0[1], math.Inf(1))
			case mode == "broken" && k%7 == 5:
				u0[0] = math.Copysign(0, -1)
			}
			sys.Step(x, u0, u1)
			refStep(ref, xr, u0, u1)
			for i := range x {
				if bitsDiffer(x[i], xr[i]) {
					t.Fatalf("%s, step %d: x[%d] = %v, three mat-vecs give %v", mode, k, i, x[i], xr[i])
				}
			}
			copy(u0, u1)
		}
	}
}
