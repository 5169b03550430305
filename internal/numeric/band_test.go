package numeric

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPDBand builds a random diagonally dominant band matrix (hence SPD)
// and a dense mirror of it.
func randomSPDBand(t *testing.T, n, bw int, rng *rand.Rand) (*SymBand, *Matrix) {
	t.Helper()
	sb, err := NewSymBand(n, bw)
	if err != nil {
		t.Fatal(err)
	}
	dense := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i - bw; j < i; j++ {
			if j < 0 {
				continue
			}
			v := rng.Float64() - 0.5
			sb.Add(i, j, v)
			dense.Add(i, j, v)
			dense.Add(j, i, v)
		}
		sb.Add(i, i, float64(bw)+2)
		dense.Add(i, i, float64(bw)+2)
	}
	return sb, dense
}

func TestBandCholeskyMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, bw int }{{1, 0}, {5, 1}, {12, 3}, {40, 8}, {64, 16}} {
		sb, dense := randomSPDBand(t, tc.n, tc.bw, rng)
		chol, err := sb.Cholesky()
		if err != nil {
			t.Fatalf("n=%d bw=%d: %v", tc.n, tc.bw, err)
		}
		b := make([]float64, tc.n)
		for i := range b {
			b[i] = rng.Float64() - 0.5
		}
		x, err := chol.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		lu, err := Factorize(dense)
		if err != nil {
			t.Fatal(err)
		}
		ref := lu.Solve(b)
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
				t.Fatalf("n=%d bw=%d: x[%d] = %g, LU ref %g", tc.n, tc.bw, i, x[i], ref[i])
			}
		}
	}
}

func TestBandCholeskyRejectsIndefinite(t *testing.T) {
	sb, err := NewSymBand(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb.Add(0, 0, 1)
	sb.Add(1, 1, -2) // indefinite
	sb.Add(2, 2, 1)
	if _, err := sb.Cholesky(); err == nil {
		t.Fatal("expected failure on an indefinite matrix")
	}
}

func TestBandCholeskyCloneIndependent(t *testing.T) {
	sb, err := NewSymBand(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sb.Add(i, i, 4)
	}
	c := sb.Clone()
	c.Add(0, 0, 100)
	if math.Abs(sb.a[0*(sb.bw+1)+sb.bw]-4) > 0 {
		t.Fatal("Clone aliases the original storage")
	}
}

func TestSymBandValidation(t *testing.T) {
	if _, err := NewSymBand(0, 0); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewSymBand(4, 4); err == nil {
		t.Fatal("expected error for bw >= n")
	}
	chol := &BandCholesky{n: 3, bw: 1, l: make([]float64, 6)}
	if _, err := chol.Solve(make([]float64, 2)); err == nil {
		t.Fatal("expected error for rhs length mismatch")
	}
}
