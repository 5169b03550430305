package numeric

// Polynomial represents a polynomial by its coefficients in ascending order:
// c[0] + c[1]*x + c[2]*x^2 + ...
type Polynomial []float64

// Eval evaluates the polynomial at x using Horner's rule.
func (p Polynomial) Eval(x float64) float64 {
	s := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		s = s*x + p[i]
	}
	return s
}

// Interp1 performs piecewise-linear interpolation of the tabulated function
// (xs, ys) at x. Outside the table range the boundary value is held
// (zero-order extrapolation), which is the safe behaviour for device tables.
// xs must be strictly increasing.
func Interp1(xs, ys []float64, x float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if len(ys) != n {
		panic("numeric: Interp1 length mismatch")
	}
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[n-1] {
		return ys[n-1]
	}
	// Binary search for the bracketing interval.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (x - xs[lo]) / (xs[hi] - xs[lo])
	return ys[lo] + t*(ys[hi]-ys[lo])
}
