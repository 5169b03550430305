package numeric

import (
	"fmt"
	"math"
)

// SymBand is a symmetric positive-definite matrix with a fixed bandwidth,
// stored as its lower band. It exists for the power-grid Laplacians: a
// W x H mesh ordered along its short dimension has bandwidth min(W, H),
// and one banded Cholesky factorization serves every load point's solve
// against the same tap set.
//
// Storage is row-major: entry (i, j) with i-bw <= j <= i lives at
// a[i*(bw+1) + (j-i+bw)], so the diagonal sits at offset bw of each row.
type SymBand struct {
	n, bw int
	a     []float64
}

// NewSymBand returns an empty n-by-n band matrix with the given bandwidth.
func NewSymBand(n, bw int) (*SymBand, error) {
	if n < 1 {
		return nil, fmt.Errorf("numeric: SymBand needs n >= 1, got %d", n)
	}
	if bw < 0 || bw >= n {
		return nil, fmt.Errorf("numeric: SymBand bandwidth %d out of range for n=%d", bw, n)
	}
	return &SymBand{n: n, bw: bw, a: make([]float64, n*(bw+1))}, nil
}

// Add accumulates v onto entry (i, j); only the lower triangle is stored,
// so callers add each symmetric pair once with i >= j.
func (s *SymBand) Add(i, j int, v float64) {
	if j > i {
		i, j = j, i
	}
	s.a[i*(s.bw+1)+(j-i+s.bw)] += v
}

// Clone returns an independent copy (used to reuse an assembled mesh
// Laplacian across tap sets that differ only on the diagonal).
func (s *SymBand) Clone() *SymBand {
	c := &SymBand{n: s.n, bw: s.bw, a: make([]float64, len(s.a))}
	copy(c.a, s.a)
	return c
}

// BandCholesky is the lower-triangular Cholesky factor of a SymBand.
type BandCholesky struct {
	n, bw int
	l     []float64
}

// Cholesky factors the matrix as L*Lᵀ. It fails on matrices that are not
// positive definite (a grid Laplacian with at least one grounded tap is).
// The receiver is not modified.
func (s *SymBand) Cholesky() (*BandCholesky, error) {
	n, bw := s.n, s.bw
	w := bw + 1
	l := make([]float64, len(s.a))
	copy(l, s.a)
	for j := 0; j < n; j++ {
		// Diagonal: d = a_jj - Σ_k l_jk².
		d := l[j*w+bw]
		lo := j - bw
		if lo < 0 {
			lo = 0
		}
		for k := lo; k < j; k++ {
			v := l[j*w+(k-j+bw)]
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("numeric: band Cholesky lost positive-definiteness at row %d (pivot %g)", j, d)
		}
		d = math.Sqrt(d)
		l[j*w+bw] = d
		// Column below the pivot: rows i = j+1 .. j+bw.
		hi := j + bw
		if hi >= n {
			hi = n - 1
		}
		for i := j + 1; i <= hi; i++ {
			v := l[i*w+(j-i+bw)]
			klo := i - bw
			if klo < lo {
				klo = lo
			}
			for k := klo; k < j; k++ {
				v -= l[i*w+(k-i+bw)] * l[j*w+(k-j+bw)]
			}
			l[i*w+(j-i+bw)] = v / d
		}
	}
	return &BandCholesky{n: n, bw: bw, l: l}, nil
}

// Solve returns x with L*Lᵀ*x = b. It is safe for concurrent use: the
// factor is read-only after construction.
func (c *BandCholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("numeric: BandCholesky rhs length %d != %d", len(b), c.n)
	}
	n, bw, w := c.n, c.bw, c.bw+1
	x := make([]float64, n)
	copy(x, b)
	// Forward: L*y = b.
	for i := 0; i < n; i++ {
		v := x[i]
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for k := lo; k < i; k++ {
			v -= c.l[i*w+(k-i+bw)] * x[k]
		}
		x[i] = v / c.l[i*w+bw]
	}
	// Backward: Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		v := x[i]
		hi := i + bw
		if hi >= n {
			hi = n - 1
		}
		for k := i + 1; k <= hi; k++ {
			v -= c.l[k*w+(i-k+bw)] * x[k]
		}
		x[i] = v / c.l[i*w+bw]
	}
	return x, nil
}
