package numeric

import (
	"fmt"
	"math"
)

// This file holds the shared finiteness guards the model packages call at
// their return boundaries, plus the epsilon comparison the floatcmp lint
// rule points at. The paper's accuracy claim rests on the optimizer
// ranking millions of candidate designs by efficiency; a single NaN in
// that stream compares false with everything and silently corrupts the
// ranking instead of crashing, so pathological sweep points must be
// turned into errors at the model boundary.

// Finite returns an error when v is NaN or ±Inf, naming the offending
// quantity.
func Finite(name string, v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("numeric: %s is NaN", name)
	}
	if math.IsInf(v, 0) {
		return fmt.Errorf("numeric: %s is %v", name, v)
	}
	return nil
}

// AllFinite checks every value and reports the first non-finite one by
// index.
func AllFinite(name string, vs ...float64) error {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("numeric: %s[%d] is %v", name, i, v)
		}
	}
	return nil
}

// ApproxEqual reports whether a and b agree within tol, using a combined
// absolute/relative criterion: |a-b| <= tol * max(1, |a|, |b|). A
// tolerance of 0 demands bit-exact agreement. NaN never compares equal
// to anything, matching IEEE-754.
//
//lint:ignore deadexport floatcmp names it as the fix, and tests across packages compare through it
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //lint:ignore floatcmp the exact fast path of the epsilon helper itself
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}
