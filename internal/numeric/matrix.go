// Package numeric provides the linear algebra, spectral, ODE, and
// statistics routines Ivory needs, implemented from scratch on top of the
// standard library so the tool runs without numerical dependencies.
//
// Matrix is a small dense row-major container. Every production
// factorization goes through the structure-aware SparseLU in
// sparselu.go: its first factorization is plain partial pivoting, and
// later refactorizations of the same pattern rerun only the numeric sweep
// over the recorded fill pattern. The one other solver is the banded
// Cholesky (band.go) for the symmetric grid Laplacians.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-initialized r-by-c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("numeric: invalid matrix shape %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have the
// same length.
func NewMatrixFrom(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("numeric: ragged rows in NewMatrixFrom")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul returns the matrix product m*b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("numeric: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	return m.MulVecInto(make([]float64, m.Rows), x)
}

// MulVecInto computes m*x into dst (len m.Rows) and returns dst. dst must
// not alias x. It allocates nothing, which makes it the right call inside
// per-step simulation loops.
func (m *Matrix) MulVecInto(dst, x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("numeric: dimension mismatch %dx%d * vec(%d)", m.Rows, m.Cols, len(x)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("numeric: MulVecInto dst length %d, want %d", len(dst), m.Rows))
	}
	// Each row is sliced to len(x), so the inner loop runs free of bounds
	// checks.
	data := m.Data
	for i := range dst {
		row := data[:len(x)]
		data = data[len(x):]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// ErrSingular is returned when a linear system has no unique solution within
// the pivot tolerance.
var ErrSingular = errors.New("numeric: matrix is singular to working precision")

// LeastSquares solves min ||A*x - b||_2 via the normal equations
// (A^T A + ridge*I) x = A^T b. A small ridge keeps rank-deficient systems
// (which arise for switch-current distribution in looped SC topologies)
// solvable; with ridge > 0 the solution approaches the minimum-norm one.
func LeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("numeric: LeastSquares shape mismatch: %d rows vs %d rhs", a.Rows, len(b))
	}
	at := a.Transpose()
	ata := at.Mul(a)
	if ridge > 0 {
		for i := 0; i < ata.Rows; i++ {
			ata.Add(i, i, ridge)
		}
	}
	f, err := NewSparseLU(ata)
	if err != nil {
		return nil, err
	}
	return f.Solve(at.MulVec(b)), nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
