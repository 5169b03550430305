package numeric

// The dense partial-pivoting LU that production code used before every
// factorization moved to SparseLU. It stays here as the test oracle:
// SparseLU's first factorization must reproduce it bit for bit, and the
// banded Cholesky and conjugate-gradient solvers are checked against it.

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	n    int
	lu   []float64 // packed L (unit diagonal, below) and U (on/above)
	perm []int     // row permutation
	sign int
}

// Factorize computes the LU factorization of the square matrix a. The input
// is not modified.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("numeric: Factorize needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := &LU{n: n, lu: make([]float64, n*n), perm: make([]int, n), sign: 1}
	copy(f.lu, a.Data)
	for i := range f.perm {
		f.perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below the diagonal.
		p, maxAbs := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := math.Abs(f.lu[i*n+k]); ab > maxAbs {
				p, maxAbs = i, ab
			}
		}
		if maxAbs < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.perm[p], f.perm[k] = f.perm[k], f.perm[p]
			f.sign = -f.sign
		}
		piv := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] / piv
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= l * f.lu[k*n+j]
			}
		}
	}
	return f, nil
}

// Solve solves A*x = b using the factorization. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	return f.SolveInto(make([]float64, f.n), b)
}

// SolveInto solves A*x = b into x (len n) and returns x. b is not modified;
// x must not alias b. It allocates nothing.
func (f *LU) SolveInto(x, b []float64) []float64 {
	if len(b) != f.n {
		panic("numeric: rhs length mismatch in LU.Solve")
	}
	if len(x) != f.n {
		panic("numeric: solution length mismatch in LU.SolveInto")
	}
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}
