package numeric

import (
	"fmt"
	"math"
)

// LinearSystem describes the LTI state-space system
//
//	dx/dt = A*x + B*u(t)
//
// integrated with the unconditionally stable trapezoidal rule. Circuit
// networks (PDNs with decaps) are stiff — explicit RK4 would need steps at
// the smallest parasitic time constant — so the implicit trapezoidal method
// is the workhorse for PDN transients, exactly as in SPICE.
type LinearSystem struct {
	A *Matrix
	B *Matrix

	// Precomputed trapezoidal propagators: one step is
	//
	//	x_{k+1} = prop·x_k + bprop·u_k + bprop·u_{k+1}
	//
	// with prop = (I - h/2 A)⁻¹ (I + h/2 A) and bprop = (I - h/2 A)⁻¹ h/2 B,
	// both solved column-by-column against the LU factorization once at
	// construction. Folding the solve into the propagator turns the per-step
	// work into two small mat-vecs — no substitution passes, no permutation
	// indexing — which matters when a PDN transient steps tens of thousands
	// of times per simulation cell.
	prop  *Matrix
	bprop *Matrix
	// Per-step scratch. Allocating these per call used to dominate the whole
	// case study's allocation profile. Reusing them makes Step
	// allocation-free — and means one LinearSystem must not be stepped from
	// two goroutines at once.
	rhs, bu0, bu1 []float64
	// lastU1 is the previous Step's u1, whose bprop·u1 bu1 still holds when
	// haveLast is set: a caller that chains its inputs (this step's u0 is
	// the last step's u1) gets bprop·u0 from it instead of a mat-vec.
	lastU1   []float64
	haveLast bool
}

// NewLinearSystem prepares a trapezoidal stepper with fixed step h for the
// system (A, B). The factorization of (I - h/2*A) is folded into the step
// propagators up front.
func NewLinearSystem(a, b *Matrix, h float64) (*LinearSystem, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("numeric: A must be square, got %dx%d", a.Rows, a.Cols)
	}
	if b.Rows != a.Rows {
		return nil, fmt.Errorf("numeric: B row count %d must match A dimension %d", b.Rows, a.Rows)
	}
	n := a.Rows
	lhs := Identity(n)
	rhs := Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lhs.Add(i, j, -h/2*a.At(i, j))
			rhs.Add(i, j, h/2*a.At(i, j))
		}
	}
	f, err := NewSparseLU(lhs)
	if err != nil {
		return nil, fmt.Errorf("numeric: trapezoidal LHS singular (step %g too large?): %w", h, err)
	}
	bh := b.Clone().Scale(h / 2)
	s := &LinearSystem{
		A: a, B: b,
		prop:   NewMatrix(n, n),
		bprop:  NewMatrix(n, b.Cols),
		rhs:    make([]float64, n),
		bu0:    make([]float64, n),
		bu1:    make([]float64, n),
		lastU1: make([]float64, b.Cols),
	}
	col := make([]float64, n)
	sol := make([]float64, n)
	solveColumn := func(src, dst *Matrix, j int) {
		for i := 0; i < n; i++ {
			col[i] = src.At(i, j)
		}
		f.SolveInto(sol, col)
		for i := 0; i < n; i++ {
			dst.Set(i, j, sol[i])
		}
	}
	for j := 0; j < n; j++ {
		solveColumn(rhs, s.prop, j)
	}
	for j := 0; j < b.Cols; j++ {
		solveColumn(bh, s.bprop, j)
	}
	return s, nil
}

// Step advances x (in place) by one trapezoidal step given the input vector
// at the current time (u0) and at the next time (u1):
//
//	(I - h/2 A) x_{k+1} = (I + h/2 A) x_k + h/2 B (u_k + u_{k+1})
//
// evaluated through the precomputed propagators. When u0 equals the
// previous call's u1 bit for bit, bprop·u0 is that call's bprop·u1, so a
// chained stream of inputs costs two mat-vecs a step instead of three,
// with the same result. Step reuses internal scratch vectors and allocates
// nothing; a single LinearSystem must therefore only be stepped by one
// goroutine at a time.
func (s *LinearSystem) Step(x, u0, u1 []float64) {
	s.prop.MulVecInto(s.rhs, x)
	if s.chained(u0) {
		s.bu0, s.bu1 = s.bu1, s.bu0
	} else {
		s.bprop.MulVecInto(s.bu0, u0)
	}
	s.bprop.MulVecInto(s.bu1, u1)
	copy(s.lastU1, u1)
	s.haveLast = true
	rhs, bu0, bu1 := s.rhs, s.bu0[:len(s.rhs)], s.bu1[:len(s.rhs)]
	x = x[:len(rhs)]
	for i, r := range rhs {
		x[i] = r + bu0[i] + bu1[i]
	}
}

// chained reports whether u0 is bit for bit the previous Step's u1.
func (s *LinearSystem) chained(u0 []float64) bool {
	if !s.haveLast || len(u0) != len(s.lastU1) {
		return false
	}
	for i, v := range u0 {
		if math.Float64bits(v) != math.Float64bits(s.lastU1[i]) {
			return false
		}
	}
	return true
}
