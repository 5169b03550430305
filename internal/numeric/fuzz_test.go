package numeric

import (
	"errors"
	"math"
	"testing"
)

// fuzzMatrix decodes a small sparse system from fuzz bytes: data[0] picks
// the dimension (1-8), data[1] the flags, then each entry takes one byte
// (< 128: structural zero) or, when nonzero, a second byte for a
// power-of-two exponent in [-10, 10]. Flag bit 0 overwrites the last row
// with a copy of the first plus a 2^-40 nudge on its diagonal, so the
// matrix sits a rounding error away from singular.
func fuzzMatrix(data []byte) *Matrix {
	n := 1 + int(data[0]%8)
	flags := data[1]
	data = data[2:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	m := NewMatrix(n, n)
	for i := range m.Data {
		if b := next(); b >= 128 {
			m.Data[i] = math.Ldexp(float64(int(b&63)-31), int(next()%21)-10)
		}
	}
	if flags&1 != 0 && n > 1 {
		copy(m.Data[(n-1)*n:], m.Data[:n])
		m.Data[(n-1)*n+n-1] += math.Ldexp(1, -40)
	}
	return m
}

// FuzzSparseLU checks the production LU against the dense test oracle on
// generated sparse and near-singular systems. NewSparseLU must agree with
// Factorize on singularity, and otherwise solve to within the 1e-9
// relative error the equivalence tests allow. A pattern-preserving
// Refactor, onto the same matrix with its columns rescaled by powers of
// two, must then match a fresh factorization of the rescaled matrix. The
// seed corpus (testdata/fuzz/FuzzSparseLU) also runs under plain `go
// test`.
func FuzzSparseLU(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := fuzzMatrix(data)
		n := m.Rows
		dense, derr := Factorize(m)
		sp, serr := NewSparseLU(m)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("singularity disagrees: dense %v, sparse %v", derr, serr)
		}
		if derr != nil {
			if !errors.Is(serr, ErrSingular) {
				t.Fatalf("sparse error %v, want ErrSingular", serr)
			}
			return
		}
		// Overflow inside the oracle's elimination leaves nothing to
		// compare against.
		for _, v := range dense.lu {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(1 + i%3)
		}
		if e := relErr(sp.Solve(b), dense.Solve(b)); !(e <= 1e-9) {
			t.Fatalf("NewSparseLU solve drifted from dense by %g", e)
		}

		scaled := m.Clone()
		for j := 0; j < n; j++ {
			e := int(data[len(data)-1-j%len(data)]%9) - 4
			for i := 0; i < n; i++ {
				scaled.Data[i*n+j] = math.Ldexp(scaled.Data[i*n+j], e)
			}
		}
		if err := sp.Refactor(scaled); err != nil {
			t.Fatalf("Refactor of a column-scaled nonsingular matrix: %v", err)
		}
		fresh, err := NewSparseLU(scaled)
		if err != nil {
			t.Fatalf("NewSparseLU of a column-scaled nonsingular matrix: %v", err)
		}
		if e := relErr(sp.Solve(b), fresh.Solve(b)); !(e <= 1e-9) {
			t.Fatalf("Refactor solve drifted from a fresh factorization by %g", e)
		}
	})
}
