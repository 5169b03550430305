package numeric

import (
	"math"
	"testing"
)

func TestPolyEval(t *testing.T) {
	p := Polynomial{1, 2, 3} // 1 + 2x + 3x^2
	if !ApproxEqual(p.Eval(0), 1, 0) {
		t.Error("Eval(0)")
	}
	if !ApproxEqual(p.Eval(2), 17, 0) {
		t.Errorf("Eval(2) = %v, want 17", p.Eval(2))
	}
}

func TestInterp1(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 10, 40}
	cases := []struct{ x, want float64 }{
		{-1, 0},   // clamp low
		{0, 0},    // exact
		{0.5, 5},  // interior
		{1.5, 25}, // interior
		{3, 40},   // clamp high
	}
	for _, c := range cases {
		if got := Interp1(xs, ys, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Interp1(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}
