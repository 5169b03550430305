package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMatrixBasicOps(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !ApproxEqual(c.At(i, j), want[i][j], 0) {
				t.Errorf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	tr := a.Transpose()
	if !ApproxEqual(tr.At(0, 1), 3, 0) || !ApproxEqual(tr.At(1, 0), 2, 0) {
		t.Errorf("Transpose wrong: %+v", tr)
	}
	v := a.MulVec([]float64{1, 1})
	if !ApproxEqual(v[0], 3, 0) || !ApproxEqual(v[1], 7, 0) {
		t.Errorf("MulVec = %v, want [3 7]", v)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	p := id.Mul(a)
	for i := range p.Data {
		if !ApproxEqual(p.Data[i], a.Data[i], 0) {
			t.Fatalf("I*A != A at %d", i)
		}
	}
}

// solveLinear solves a*x = b through the production factorization.
func solveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := NewSparseLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

func TestSolveLinearKnown(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 => x = 1, y = 3
	a := NewMatrixFrom([][]float64{{2, 1}, {1, 3}})
	x, err := solveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := solveLinear(a, []float64{1, 2}); err == nil {
		t.Error("expected singular error, got nil")
	}
}

func TestLUDeterminant(t *testing.T) {
	a := NewMatrixFrom([][]float64{{4, 3}, {6, 3}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -6, 1e-12) {
		t.Errorf("det = %v, want -6", f.Det())
	}
}

// Property: for random well-conditioned systems, the production solve
// recovers a known x.
func TestSolveRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance for conditioning
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x, err := solveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-9) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 from noisy-free samples; exact recovery expected.
	a := NewMatrix(5, 2)
	b := make([]float64, 5)
	for i := 0; i < 5; i++ {
		x := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2*x + 1
	}
	c, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c[0], 1, 1e-10) || !almostEq(c[1], 2, 1e-10) {
		t.Errorf("coeffs = %v, want [1 2]", c)
	}
}

func TestLeastSquaresRidgeRankDeficient(t *testing.T) {
	// Columns are identical: without ridge the normal equations are singular.
	a := NewMatrixFrom([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := []float64{2, 4, 6}
	x, err := LeastSquares(a, b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum-norm solution splits the weight evenly: x ~ [1, 1].
	if !almostEq(x[0], 1, 1e-3) || !almostEq(x[1], 1, 1e-3) {
		t.Errorf("ridge solution = %v, want ~[1 1]", x)
	}
}

func TestDotAndNorm(t *testing.T) {
	if !ApproxEqual(Dot([]float64{1, 2, 3}, []float64{4, 5, 6}), 32, 0) {
		t.Error("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Error("Norm2 wrong")
	}
}

// quick.Check property: (A^T)^T == A for random matrices.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := NewMatrix(r, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		tt := a.Transpose().Transpose()
		if tt.Rows != a.Rows || tt.Cols != a.Cols {
			return false
		}
		for i := range a.Data {
			if !ApproxEqual(tt.Data[i], a.Data[i], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: det(A*B) == det(A)*det(B) for random small matrices.
func TestDetMultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(5)
		a, b := NewMatrix(n, n), NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, 3)
			b.Add(i, i, 3)
		}
		fa, err1 := Factorize(a)
		fb, err2 := Factorize(b)
		fab, err3 := Factorize(a.Mul(b))
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if !almostEq(fab.Det(), fa.Det()*fb.Det(), 1e-8) {
			t.Errorf("det(AB)=%v det(A)det(B)=%v", fab.Det(), fa.Det()*fb.Det())
		}
	}
}
