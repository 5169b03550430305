package numeric

import (
	"fmt"
	"math"
	"math/cmplx"
)

// This file holds the structure-aware LU kernels behind the MNA circuit
// simulator. A circuit's matrix pattern is fixed: time steps, switch-state
// changes, and AC frequency points all reassign *values* at the same
// positions. The kernels therefore split factorization into
//
//   - a symbolic phase, run once per pattern: pivot order, fill-in
//     pattern of L and U, and the row/column index lists that drive the
//     pruned elimination and substitution loops; and
//   - a numeric phase (Refactor), run per value change: a sweep over the
//     precomputed pattern into preallocated storage, with no pivot
//     search, no index discovery, and no allocation.
//
// The pivot order is frozen from the factorization that built the
// symbolic phase. Every Refactor guards that choice: if an input nonzero
// falls outside the recorded pattern, or a frozen pivot loses too much
// ground against its column (threshold pivoting, see pivotTau), the
// kernel transparently re-pivots from scratch and rebuilds a private
// symbolic phase. Results are therefore always as accurate as a fresh
// partial-pivoted factorization — the symbolic reuse is purely a fast
// path. When the frozen order matches what partial pivoting would pick,
// the numeric sweep performs bit-for-bit the same arithmetic as a dense
// partial-pivoted LU and its substitution pair (the reference kept in
// denseref_test.go).
//
// SparseLU is the only real factorization in production: the circuit
// simulator's operating point, transient start and per-switch-state
// matrices, the PDN trapezoidal stepper (NewLinearSystem) and the
// normal equations of LeastSquares all go through it.
//
// Storage is dense row-major (the MNA systems are tens of rows, where
// index-list pruning pays but compressed storage overhead does not);
// elimination and substitution cost tracks the nonzero count of L+U, not
// n^3 / n^2.

// pivotTau is the threshold-pivoting tolerance of the numeric refactor: a
// frozen pivot must be at least pivotTau times the largest magnitude in
// its column's remaining pattern, or the kernel falls back to a fresh
// pivot search. 1e-3 is the customary sparse-LU compromise between
// stability (growth bound) and order reuse.
const pivotTau = 1e-3

// pivotTiny is the absolute singularity floor of the pivot search.
const pivotTiny = 1e-300

// Symbolic is the shared, immutable structure of an LU factorization:
// pivot order and the fill-in pattern of L and U. One Symbolic may back
// any number of real (SparseLU) and complex (ComplexLU) numeric
// factorizations concurrently — it is never mutated after construction.
type Symbolic struct {
	n    int
	perm []int  // row permutation: factored row i holds input row perm[i]
	mask []bool // mask[i*n+j]: position (i,j) is inside the L+U pattern

	// Index lists driving the pruned loops, all in post-permutation row
	// numbering:
	lcol [][]int32 // per step k: rows i > k with L[i,k] structurally nonzero
	urow [][]int32 // per row k: cols j > k with U[k,j] structurally nonzero
	lrow [][]int32 // per row i: cols j < i with L[i,j] structurally nonzero
}

// N returns the matrix dimension.
func (s *Symbolic) N() int { return s.n }

// NNZ returns the number of structurally nonzero positions in L+U,
// including fill-in — the quantity refactorization cost scales with.
func (s *Symbolic) NNZ() int {
	nnz := 0
	for _, b := range s.mask {
		if b {
			nnz++
		}
	}
	return nnz
}

// buildSymbolic assembles the index lists from a completed structural
// elimination: B is the final L+U pattern (post-permutation), perm the
// recorded pivot order.
func buildSymbolic(n int, B []bool, perm []int) *Symbolic {
	s := &Symbolic{
		n: n, perm: perm, mask: B,
		lcol: make([][]int32, n),
		urow: make([][]int32, n),
		lrow: make([][]int32, n),
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if B[i*n+k] {
				s.lcol[k] = append(s.lcol[k], int32(i))
				s.lrow[i] = append(s.lrow[i], int32(k))
			}
			if B[k*n+i] {
				s.urow[k] = append(s.urow[k], int32(i))
			}
		}
	}
	return s
}

// SparseLU is a real-valued LU factorization with a symbolic-once /
// numeric-refactor split. Build one with NewSparseLU, then call Refactor
// for each new value assignment sharing the pattern; Fork clones the
// handle (sharing the symbolic phase) for factoring several value sets
// side by side, e.g. one per cached switch state.
//
// A SparseLU must not be used from multiple goroutines at once, but
// distinct forks may be, since the shared Symbolic is immutable.
type SparseLU struct {
	sym      *Symbolic
	lu       []float64
	repivots int
}

// NewSparseLU factorizes a by partial pivoting and records the symbolic
// structure for later Refactor calls.
// The input is not modified.
func NewSparseLU(a *Matrix) (*SparseLU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("numeric: NewSparseLU needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := &SparseLU{lu: make([]float64, n*n)}
	copy(f.lu, a.Data)
	if err := f.pivotingFactor(n); err != nil {
		return nil, err
	}
	return f, nil
}

// pivotingFactor runs the full dense partial-pivoted factorization over
// f.lu (which holds the matrix values) and rebuilds f.sym from scratch.
// It performs exactly the arithmetic of a dense partial-pivoted LU, plus
// a structural shadow pass that records the fill pattern.
func (f *SparseLU) pivotingFactor(n int) error {
	B := make([]bool, n*n)
	for i, v := range f.lu {
		B[i] = v != 0
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := math.Abs(lu[i*n+k]); ab > maxAbs {
				p, maxAbs = i, ab
			}
		}
		if maxAbs < pivotTiny {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
				B[p*n+j], B[k*n+j] = B[k*n+j], B[p*n+j]
			}
			perm[p], perm[k] = perm[k], perm[p]
		}
		piv := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			if B[i*n+k] {
				for j := k + 1; j < n; j++ {
					if B[k*n+j] {
						B[i*n+j] = true
					}
				}
			}
			l := lu[i*n+k] / piv
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= l * lu[k*n+j]
			}
		}
	}
	f.sym = buildSymbolic(n, B, perm)
	return nil
}

// Symbolic returns the factorization's current symbolic structure.
func (f *SparseLU) Symbolic() *Symbolic { return f.sym }

// Repivots reports how many Refactor calls had to abandon the frozen
// pivot order and re-run the full pivot search (pattern escape or pivot
// degradation past the threshold-pivoting tolerance).
func (f *SparseLU) Repivots() int { return f.repivots }

// Fork returns a new factorization handle sharing this one's symbolic
// structure but with independent value storage. The fork holds no values
// until its first Refactor.
func (f *SparseLU) Fork() *SparseLU {
	return &SparseLU{sym: f.sym, lu: make([]float64, len(f.lu))}
}

// Refactor refactorizes the matrix a, which must share the pattern the
// symbolic phase was built from, into the existing storage. It allocates
// nothing on the fast path. If a's nonzeros escape the recorded pattern
// or a frozen pivot fails the stability test, it transparently re-pivots
// (rebuilding a private symbolic structure) and still succeeds; the only
// error is a singular matrix. The input is not modified.
func (f *SparseLU) Refactor(a *Matrix) error {
	if f.sym == nil || a.Rows != a.Cols || a.Rows != f.sym.n {
		return f.refactorFresh(a)
	}
	n := f.sym.n
	mask := f.sym.mask
	lu := f.lu
	// Gather rows in pivot order, guarding the pattern as we copy.
	for i := 0; i < n; i++ {
		src := a.Data[f.sym.perm[i]*n : f.sym.perm[i]*n+n]
		dst := lu[i*n : i*n+n]
		m := mask[i*n : i*n+n]
		for j, v := range src {
			if v != 0 && !m[j] {
				return f.refactorFresh(a)
			}
			dst[j] = v
		}
	}
	for k := 0; k < n; k++ {
		piv := lu[k*n+k]
		apiv := math.Abs(piv)
		colMax := apiv
		for _, i := range f.sym.lcol[k] {
			if ab := math.Abs(lu[int(i)*n+k]); ab > colMax {
				colMax = ab
			}
		}
		if apiv < pivotTiny || apiv < pivotTau*colMax {
			return f.refactorFresh(a)
		}
		urow := f.sym.urow[k]
		for _, ii := range f.sym.lcol[k] {
			i := int(ii)
			l := lu[i*n+k] / piv
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for _, jj := range urow {
				j := int(jj)
				lu[i*n+j] -= l * lu[k*n+j]
			}
		}
	}
	return nil
}

// refactorFresh is the slow path: full pivot search and a fresh symbolic
// structure private to this handle (shared forks keep theirs).
func (f *SparseLU) refactorFresh(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("numeric: Refactor needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(f.lu) != n*n {
		f.lu = make([]float64, n*n)
	}
	copy(f.lu, a.Data)
	f.repivots++
	return f.pivotingFactor(n)
}

// Solve solves A*x = b against the last refactorization. b is not
// modified.
func (f *SparseLU) Solve(b []float64) []float64 {
	return f.SolveInto(make([]float64, f.sym.n), b)
}

// SolveInto solves A*x = b into x and returns x, via pattern-pruned
// forward and back substitution. b is not modified; x must not alias b.
// It allocates nothing.
func (f *SparseLU) SolveInto(x, b []float64) []float64 {
	n := f.sym.n
	if len(b) != n {
		panic("numeric: rhs length mismatch in SparseLU.SolveInto")
	}
	if len(x) != n {
		panic("numeric: solution length mismatch in SparseLU.SolveInto")
	}
	lu := f.lu
	for i := 0; i < n; i++ {
		x[i] = b[f.sym.perm[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for _, jj := range f.sym.lrow[i] {
			j := int(jj)
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for _, jj := range f.sym.urow[i] {
			j := int(jj)
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s / lu[i*n+i]
	}
	return x
}

// ComplexLU is the complex-valued twin of SparseLU, sharing the same
// symbolic machinery. The MNA AC sweep has one pattern across all
// frequencies (admittance values move, positions do not), so the kernel
// factors the pattern once at the first frequency and then runs the
// numeric-only sweep per point. The same re-pivot guard applies: if the
// admittance drift degrades a frozen pivot (threshold pivoting on complex
// magnitudes), the factorization transparently re-pivots and carries the
// refreshed order to subsequent frequencies.
type ComplexLU struct {
	sym      *Symbolic
	lu       []complex128
	repivots int
}

// NewComplexLU factorizes the dense row-major n-by-n complex matrix a
// with partial pivoting and records the symbolic structure. The input is
// not modified.
func NewComplexLU(a []complex128, n int) (*ComplexLU, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("numeric: NewComplexLU needs %d values for dim %d, got %d", n*n, n, len(a))
	}
	f := &ComplexLU{lu: make([]complex128, n*n)}
	copy(f.lu, a)
	if err := f.pivotingFactor(n); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *ComplexLU) pivotingFactor(n int) error {
	B := make([]bool, n*n)
	for i, v := range f.lu {
		B[i] = v != 0
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		p, maxAbs := k, cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := cmplx.Abs(lu[i*n+k]); ab > maxAbs {
				p, maxAbs = i, ab
			}
		}
		if maxAbs < pivotTiny {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
				B[p*n+j], B[k*n+j] = B[k*n+j], B[p*n+j]
			}
			perm[p], perm[k] = perm[k], perm[p]
		}
		piv := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			if B[i*n+k] {
				for j := k + 1; j < n; j++ {
					if B[k*n+j] {
						B[i*n+j] = true
					}
				}
			}
			l := lu[i*n+k] / piv
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= l * lu[k*n+j]
			}
		}
	}
	f.sym = buildSymbolic(n, B, perm)
	return nil
}

// Symbolic returns the factorization's current symbolic structure.
func (f *ComplexLU) Symbolic() *Symbolic { return f.sym }

// Repivots reports how many Refactor calls fell back to a full pivot
// search.
func (f *ComplexLU) Repivots() int { return f.repivots }

// Refactor refactorizes the dense row-major matrix a, which must share
// the recorded pattern, into the existing storage; it allocates nothing
// on the fast path and transparently re-pivots when the pattern or the
// pivot stability test is violated. The input is not modified.
func (f *ComplexLU) Refactor(a []complex128) error {
	if f.sym == nil || len(a) != f.sym.n*f.sym.n {
		return f.refactorFresh(a)
	}
	n := f.sym.n
	mask := f.sym.mask
	lu := f.lu
	for i := 0; i < n; i++ {
		src := a[f.sym.perm[i]*n : f.sym.perm[i]*n+n]
		dst := lu[i*n : i*n+n]
		m := mask[i*n : i*n+n]
		for j, v := range src {
			if v != 0 && !m[j] {
				return f.refactorFresh(a)
			}
			dst[j] = v
		}
	}
	for k := 0; k < n; k++ {
		piv := lu[k*n+k]
		apiv := cmplx.Abs(piv)
		colMax := apiv
		for _, i := range f.sym.lcol[k] {
			if ab := cmplx.Abs(lu[int(i)*n+k]); ab > colMax {
				colMax = ab
			}
		}
		if apiv < pivotTiny || apiv < pivotTau*colMax {
			return f.refactorFresh(a)
		}
		urow := f.sym.urow[k]
		for _, ii := range f.sym.lcol[k] {
			i := int(ii)
			l := lu[i*n+k] / piv
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for _, jj := range urow {
				j := int(jj)
				lu[i*n+j] -= l * lu[k*n+j]
			}
		}
	}
	return nil
}

func (f *ComplexLU) refactorFresh(a []complex128) error {
	nsq := len(a)
	n := int(math.Round(math.Sqrt(float64(nsq))))
	if n*n != nsq {
		return fmt.Errorf("numeric: ComplexLU.Refactor input length %d is not a square", nsq)
	}
	if len(f.lu) != nsq {
		f.lu = make([]complex128, nsq)
	}
	copy(f.lu, a)
	f.repivots++
	return f.pivotingFactor(n)
}

// Solve solves A*x = b against the last refactorization. b is not
// modified.
func (f *ComplexLU) Solve(b []complex128) []complex128 {
	return f.SolveInto(make([]complex128, f.sym.n), b)
}

// SolveInto solves A*x = b into x and returns x, via pattern-pruned
// substitution. b is not modified; x must not alias b. It allocates
// nothing.
func (f *ComplexLU) SolveInto(x, b []complex128) []complex128 {
	n := f.sym.n
	if len(b) != n {
		panic("numeric: rhs length mismatch in ComplexLU.SolveInto")
	}
	if len(x) != n {
		panic("numeric: solution length mismatch in ComplexLU.SolveInto")
	}
	lu := f.lu
	for i := 0; i < n; i++ {
		x[i] = b[f.sym.perm[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for _, jj := range f.sym.lrow[i] {
			j := int(jj)
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for _, jj := range f.sym.urow[i] {
			j := int(jj)
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s / lu[i*n+i]
	}
	return x
}
