package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// mnaLike builds an MNA-shaped test system: an n-node resistive mesh with
// sparse off-diagonal coupling plus nb voltage-source border rows whose
// diagonal is structurally zero — the exact shape that forces pivoting in
// the circuit simulator. rng controls the conductance values.
func mnaLike(rng *rand.Rand, n, nb int) *Matrix {
	dim := n + nb
	m := NewMatrix(dim, dim)
	stamp := func(a, b int, g float64) {
		m.Add(a, a, g)
		m.Add(b, b, g)
		m.Add(a, b, -g)
		m.Add(b, a, -g)
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, 1e-12) // Gmin
		stamp(i, (i+1)%n, 0.1+rng.Float64())
	}
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			stamp(a, b, 0.1+10*rng.Float64())
		}
	}
	for k := 0; k < nb; k++ {
		row := n + k
		node := rng.Intn(n)
		m.Set(row, node, 1)
		m.Set(node, row, 1)
	}
	return m
}

func randRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// The first factorization performs exactly the dense algorithm, so its
// pivot order, packed factors and solves must be bit-identical to the
// dense oracle's Factorize/Solve.
func TestSparseLUMatchesDenseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := mnaLike(rng, 4+rng.Intn(12), rng.Intn(3))
		dense, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := NewSparseLU(m)
		if err != nil {
			t.Fatal(err)
		}
		b := randRHS(rng, m.Rows)
		want := dense.Solve(b)
		got := sp.Solve(b)
		for i := range want {
			//lint:ignore floatcmp the kernel's contract is exact bitwise identity with the dense path
			if got[i] != want[i] {
				t.Fatalf("trial %d: x[%d] = %v, dense %v (must be bit-identical)", trial, i, got[i], want[i])
			}
		}
		for i := range dense.lu {
			//lint:ignore floatcmp the packed L and U factors must match the dense path bit-for-bit
			if sp.lu[i] != dense.lu[i] {
				t.Fatalf("trial %d: packed LU[%d] = %v, dense %v", trial, i, sp.lu[i], dense.lu[i])
			}
		}
		for i, p := range dense.perm {
			if sp.sym.perm[i] != p {
				t.Fatalf("trial %d: pivot order %v, dense %v", trial, sp.sym.perm, dense.perm)
			}
		}
	}
}

// Refactoring with the same values keeps the frozen order, so the pruned
// sweep must reproduce the dense solution bit-for-bit.
func TestRefactorSameValuesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := mnaLike(rng, 12, 2)
	dense, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Refactor(m); err != nil {
		t.Fatal(err)
	}
	if sp.Repivots() != 0 {
		t.Fatalf("same-value refactor re-pivoted %d times", sp.Repivots())
	}
	b := randRHS(rng, m.Rows)
	x := make([]float64, m.Rows)
	sp.SolveInto(x, b)
	want := dense.Solve(b)
	for i := range want {
		//lint:ignore floatcmp same-value refactor under a frozen pivot order must be bit-identical
		if x[i] != want[i] {
			t.Fatalf("x[%d] = %v, dense %v (must be bit-identical)", i, x[i], want[i])
		}
	}
}

func relErr(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range got {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// Perturbing values on a fixed pattern (the switch-toggle / new-timestep
// path) must stay within LU roundoff of a fresh dense factorization.
func TestRefactorPerturbedValuesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m := mnaLike(rng, 4+rng.Intn(12), 1+rng.Intn(2))
		sp, err := NewSparseLU(m)
		if err != nil {
			t.Fatal(err)
		}
		m2 := m.Clone()
		for i := range m2.Data {
			if m2.Data[i] != 0 {
				m2.Data[i] *= 1 + 0.5*rng.Float64()
			}
		}
		if err := sp.Refactor(m2); err != nil {
			t.Fatal(err)
		}
		dense, err := Factorize(m2)
		if err != nil {
			t.Fatal(err)
		}
		b := randRHS(rng, m2.Rows)
		x := make([]float64, m2.Rows)
		sp.SolveInto(x, b)
		if e := relErr(x, dense.Solve(b)); e > 1e-9 {
			t.Fatalf("trial %d: refactor drifted from dense by %g", trial, e)
		}
	}
}

// A nonzero outside the recorded pattern must trigger the transparent
// re-pivot fallback and still produce the dense answer.
func TestRefactorPatternEscapeFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := mnaLike(rng, 10, 1)
	sp, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m.Clone()
	// Couple two nodes that were structurally disconnected.
	added := false
	for i := 0; i < 10 && !added; i++ {
		for j := 0; j < 10 && !added; j++ {
			if i != j && m2.At(i, j) == 0 && !sp.Symbolic().mask[i*m2.Cols+j] {
				m2.Set(i, j, 3)
				m2.Set(j, i, 3)
				m2.Add(i, i, 3)
				m2.Add(j, j, 3)
				added = true
			}
		}
	}
	if !added {
		t.Skip("mesh too dense to find an out-of-pattern position")
	}
	if err := sp.Refactor(m2); err != nil {
		t.Fatal(err)
	}
	if sp.Repivots() == 0 {
		t.Fatal("pattern escape did not trigger a re-pivot")
	}
	dense, err := Factorize(m2)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(rng, m2.Rows)
	x := make([]float64, m2.Rows)
	sp.SolveInto(x, b)
	for i := range x {
		//lint:ignore floatcmp the re-pivot fallback runs the exact dense algorithm, so identity is bitwise
		if x[i] != dense.Solve(b)[i] {
			t.Fatalf("post-fallback solve differs from dense at %d", i)
		}
	}
}

// Swinging a value by 14 orders of magnitude (the switch ron/roff swing)
// degrades the frozen pivots; the threshold-pivoting guard must catch it
// and the answer must still match dense to tight tolerance.
func TestRefactorPivotDegradationRepivots(t *testing.T) {
	m := NewMatrixFrom([][]float64{
		{1e-12 + 20, -20, 0, 1},
		{-20, 20 + 1.0, -1.0, 0},
		{0, -1.0, 1.0 + 1e-12, 0},
		{1, 0, 0, 0},
	})
	sp, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	// Same pattern, switch conductance collapsed 20 -> 1e-12.
	m2 := NewMatrixFrom([][]float64{
		{2e-12, -1e-12, 0, 1},
		{-1e-12, 1e-12 + 1.0, -1.0, 0},
		{0, -1.0, 1.0 + 1e-12, 0},
		{1, 0, 0, 0},
	})
	if err := sp.Refactor(m2); err != nil {
		t.Fatal(err)
	}
	dense, err := Factorize(m2)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{0.5, -0.25, 1, 2}
	x := make([]float64, 4)
	sp.SolveInto(x, b)
	if e := relErr(x, dense.Solve(b)); e > 1e-9 {
		t.Fatalf("degraded-pivot refactor drifted from dense by %g (repivots %d)", e, sp.Repivots())
	}
}

func TestSparseLUSingular(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := NewSparseLU(m); err != ErrSingular {
		t.Fatalf("singular NewSparseLU err = %v, want ErrSingular", err)
	}
	good := NewMatrixFrom([][]float64{{1, 2}, {2, 5}})
	sp, err := NewSparseLU(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Refactor(m); err != ErrSingular {
		t.Fatalf("singular Refactor err = %v, want ErrSingular", err)
	}
	if _, err := NewSparseLU(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square NewSparseLU must fail")
	}
}

// Forks share the symbolic phase but hold independent values — the cached
// switch-state layout in the transient simulator.
func TestForkIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := mnaLike(rng, 8, 1)
	sp, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m.Clone()
	for i := range m2.Data {
		if m2.Data[i] != 0 {
			m2.Data[i] *= 2
		}
	}
	fork := sp.Fork()
	if fork.Symbolic() != sp.Symbolic() {
		t.Fatal("fork must share the symbolic structure")
	}
	if err := fork.Refactor(m2); err != nil {
		t.Fatal(err)
	}
	b := randRHS(rng, m.Rows)
	x1 := sp.Solve(b)
	x2 := fork.Solve(b)
	d1, _ := Factorize(m)
	d2, _ := Factorize(m2)
	if e := relErr(x1, d1.Solve(b)); e > 1e-12 {
		t.Fatalf("original drifted after fork refactor: %g", e)
	}
	if e := relErr(x2, d2.Solve(b)); e > 1e-9 {
		t.Fatalf("fork solve off by %g", e)
	}
}

// The refactor + solve fast path must be allocation-free.
func TestRefactorSolveAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := mnaLike(rng, 12, 2)
	sp, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(rng, m.Rows)
	x := make([]float64, m.Rows)
	allocs := testing.AllocsPerRun(100, func() {
		if err := sp.Refactor(m); err != nil {
			t.Fatal(err)
		}
		sp.SolveInto(x, b)
	})
	if allocs != 0 {
		t.Fatalf("Refactor+SolveInto allocated %v times per run, want 0", allocs)
	}
}

func TestSymbolicNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := mnaLike(rng, 20, 2)
	sp, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	nnz := sp.Symbolic().NNZ()
	dim := m.Rows
	if nnz <= 0 || nnz > dim*dim {
		t.Fatalf("NNZ = %d out of range (dim %d)", nnz, dim)
	}
	if sp.Symbolic().N() != dim {
		t.Fatalf("N = %d, want %d", sp.Symbolic().N(), dim)
	}
}

// --- complex twin -----------------------------------------------------------

// denseComplexSolve is an independent reference: plain complex Gaussian
// elimination with partial pivoting (the algorithm the AC path used
// before the structure-aware kernel).
func denseComplexSolve(t *testing.T, m []complex128, b []complex128, n int) []complex128 {
	t.Helper()
	a := append([]complex128(nil), m...)
	x := append([]complex128(nil), b...)
	for k := 0; k < n; k++ {
		p, mx := k, cmplx.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := cmplx.Abs(a[i*n+k]); ab > mx {
				p, mx = i, ab
			}
		}
		if mx < 1e-300 {
			t.Fatal("singular reference matrix")
		}
		if p != k {
			for j := 0; j < n; j++ {
				a[p*n+j], a[k*n+j] = a[k*n+j], a[p*n+j]
			}
			x[p], x[k] = x[k], x[p]
		}
		piv := a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / piv
			if l == 0 {
				continue
			}
			a[i*n+k] = 0
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
			x[i] -= l * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a[i*n+j] * x[j]
		}
		x[i] = s / a[i*n+i]
	}
	return x
}

// acLike assembles an RC-ladder admittance matrix at angular frequency w:
// the frequency sweep reuses one pattern with drifting values.
func acLike(n int, w float64) []complex128 {
	m := make([]complex128, n*n)
	stamp := func(a, b int, y complex128) {
		if a >= 0 {
			m[a*n+a] += y
		}
		if b >= 0 {
			m[b*n+b] += y
		}
		if a >= 0 && b >= 0 {
			m[a*n+b] -= y
			m[b*n+a] -= y
		}
	}
	for i := 0; i < n; i++ {
		prev := i - 1
		stamp(prev, i, complex(1.0/(1.0+float64(i)), 0))
		stamp(i, -1, complex(0, w*1e-9*float64(i+1)))
		m[i*n+i] += 1e-12
	}
	return m
}

func TestComplexLUFrequencySweepEquivalence(t *testing.T) {
	n := 10
	b := make([]complex128, n)
	b[0] = 1
	first := acLike(n, 2*math.Pi*1e3)
	cf, err := NewComplexLU(first, n)
	if err != nil {
		t.Fatal(err)
	}
	// First factorization is the dense algorithm: bit-identical solve.
	got := cf.Solve(b)
	want := denseComplexSolve(t, first, b, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("first-frequency x[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
	// Sweep six decades on the same pattern through the numeric-only path.
	x := make([]complex128, n)
	for _, f := range []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9} {
		m := acLike(n, 2*math.Pi*f)
		if err := cf.Refactor(m); err != nil {
			t.Fatal(err)
		}
		cf.SolveInto(x, b)
		want := denseComplexSolve(t, m, b, n)
		num, den := 0.0, 0.0
		for i := range x {
			num += cmplx.Abs(x[i]-want[i]) * cmplx.Abs(x[i]-want[i])
			den += cmplx.Abs(want[i]) * cmplx.Abs(want[i])
		}
		if math.Sqrt(num/den) > 1e-9 {
			t.Fatalf("f=%g: refactor drifted from dense by %g", f, math.Sqrt(num/den))
		}
	}
}

func TestComplexLUAllocationFree(t *testing.T) {
	n := 10
	m := acLike(n, 2*math.Pi*1e6)
	cf, err := NewComplexLU(m, n)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, n)
	b[0] = 1
	x := make([]complex128, n)
	allocs := testing.AllocsPerRun(100, func() {
		if err := cf.Refactor(m); err != nil {
			t.Fatal(err)
		}
		cf.SolveInto(x, b)
	})
	if allocs != 0 {
		t.Fatalf("ComplexLU Refactor+SolveInto allocated %v times per run, want 0", allocs)
	}
}

func TestComplexLUSingularAndShape(t *testing.T) {
	if _, err := NewComplexLU(make([]complex128, 3), 2); err == nil {
		t.Fatal("wrong-length input must fail")
	}
	sing := []complex128{1, 2, 2, 4}
	if _, err := NewComplexLU(sing, 2); err != ErrSingular {
		t.Fatalf("singular NewComplexLU err = %v, want ErrSingular", err)
	}
	ok := []complex128{1, 2, 2, 5}
	cf, err := NewComplexLU(ok, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Refactor(sing); err != ErrSingular {
		t.Fatalf("singular Refactor err = %v, want ErrSingular", err)
	}
}

// --- benchmarks -------------------------------------------------------------

// BenchmarkDenseFactorizeSolve times the dense test-oracle LU on the same
// system as BenchmarkSparseLURefactorSolve: the unstructured baseline the
// production refactor path is measured against.
func BenchmarkDenseFactorizeSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := mnaLike(rng, 24, 3)
	rhs := randRHS(rng, m.Rows)
	x := make([]float64, m.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Factorize(m)
		if err != nil {
			b.Fatal(err)
		}
		f.SolveInto(x, rhs)
	}
}

func BenchmarkSparseLURefactorSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := mnaLike(rng, 24, 3)
	rhs := randRHS(rng, m.Rows)
	x := make([]float64, m.Rows)
	f, err := NewSparseLU(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Refactor(m); err != nil {
			b.Fatal(err)
		}
		f.SolveInto(x, rhs)
	}
}
