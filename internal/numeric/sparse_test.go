package numeric

import (
	"math"
	"math/rand"
	"testing"
)

func TestSparseMulVec(t *testing.T) {
	// 2x2: [[3, -1], [-1, 2]]
	m := NewSparseMatrix(2)
	m.AddDiag(0, 3)
	m.AddDiag(1, 2)
	m.AddSym(0, 1, -1)
	dst := make([]float64, 2)
	m.MulVec([]float64{1, 1}, dst)
	if !ApproxEqual(dst[0], 2, 0) || !ApproxEqual(dst[1], 1, 0) {
		t.Errorf("MulVec = %v, want [2 1]", dst)
	}
	// AddSym on the diagonal folds into diag.
	m2 := NewSparseMatrix(1)
	m2.AddSym(0, 0, 5)
	m2.MulVec([]float64{2}, dst[:1])
	if !ApproxEqual(dst[0], 10, 0) {
		t.Errorf("diagonal AddSym wrong: %v", dst[0])
	}
	// Accumulation onto an existing off-diagonal entry.
	m.AddSym(0, 1, -0.5)
	m.MulVec([]float64{0, 1}, dst)
	if !ApproxEqual(dst[0], -1.5, 0) {
		t.Errorf("accumulated off-diagonal wrong: %v", dst[0])
	}
}

func TestSolveCGAgainstLU(t *testing.T) {
	// Random SPD matrix: A = B^T B + n*I, compare CG vs dense LU.
	rng := rand.New(rand.NewSource(11))
	n := 40
	bm := NewMatrix(n, n)
	for i := range bm.Data {
		bm.Data[i] = rng.NormFloat64()
	}
	dense := bm.Transpose().Mul(bm)
	for i := 0; i < n; i++ {
		dense.Add(i, i, float64(n))
	}
	sp := NewSparseMatrix(n)
	for i := 0; i < n; i++ {
		sp.AddDiag(i, dense.At(i, i))
		for j := i + 1; j < n; j++ {
			if v := dense.At(i, j); v != 0 {
				sp.AddSym(i, j, v)
			}
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	lu, err := Factorize(dense)
	if err != nil {
		t.Fatal(err)
	}
	want := lu.Solve(b)
	got, iters, err := sp.SolveCG(b, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Error("no iterations reported")
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSolveCGLaplacianChain(t *testing.T) {
	// 1-D resistor chain grounded at node 0 (large diagonal), unit current
	// into the far end: potential grows linearly.
	n := 50
	g := 1.0
	sp := NewSparseMatrix(n)
	for i := 0; i+1 < n; i++ {
		sp.AddDiag(i, g)
		sp.AddDiag(i+1, g)
		sp.AddSym(i, i+1, -g)
	}
	sp.AddDiag(0, 1e9)
	b := make([]float64, n)
	b[n-1] = 1
	x, _, err := sp.SolveCG(b, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	// v[k] ~ k * R (R = 1), relative to the grounded end.
	for k := 1; k < n; k++ {
		want := float64(k)
		if math.Abs(x[k]-want) > 1e-6*want {
			t.Fatalf("v[%d] = %v, want %v", k, x[k], want)
		}
	}
}

func TestSolveCGValidation(t *testing.T) {
	sp := NewSparseMatrix(2)
	sp.AddDiag(0, 1)
	// Missing positive diagonal on row 1.
	if _, _, err := sp.SolveCG([]float64{1, 1}, 1e-10, 0); err == nil {
		t.Error("non-positive diagonal must fail")
	}
	sp.AddDiag(1, 1)
	if _, _, err := sp.SolveCG([]float64{1}, 1e-10, 0); err == nil {
		t.Error("rhs length mismatch must fail")
	}
	// Zero rhs short-circuits.
	x, iters, err := sp.SolveCG([]float64{0, 0}, 1e-10, 0)
	if err != nil || iters != 0 || x[0] != 0 {
		t.Error("zero rhs should return immediately")
	}
}
