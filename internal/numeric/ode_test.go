package numeric

import (
	"math"
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
