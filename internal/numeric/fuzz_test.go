package numeric

import (
	"encoding/binary"
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

// fuzzSample decodes a sample from fuzz bytes. A byte below 0xF0 is a
// value from a small alphabet, (b&15 - 8)·2^(b>>4 - 7), so ties and
// clusters are common; the bytes above it are special values: ±Inf, NaN,
// -0, ±MaxFloat64, the smallest subnormal, and (0xF7) the raw float64 in
// the next eight bytes.
func fuzzSample(data []byte) []float64 {
	var xs []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		var v float64
		switch {
		case b < 0xF0:
			v = math.Ldexp(float64(int(b&15)-8), int(b>>4)-7)
		case b == 0xF0:
			v = math.Inf(1)
		case b == 0xF1:
			v = math.Inf(-1)
		case b == 0xF2:
			v = math.NaN()
		case b == 0xF3:
			v = math.Copysign(0, -1)
		case b == 0xF4:
			v = math.MaxFloat64
		case b == 0xF5:
			v = -math.MaxFloat64
		case b == 0xF6:
			v = 5e-324
		case b == 0xF7 && len(data) >= 8:
			v = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		default:
			v = 1
		}
		xs = append(xs, v)
	}
	return xs
}

// FuzzSummarizeInPlace holds SummarizeInPlace to the sort-based reference
// bit for bit on decoded samples, and samples with a NaN or ±Inf to the
// nested-quickselect path (checkSummarizeInPlace). The seeds cover ties,
// constant and two-valued samples, and each special value.
func FuzzSummarizeInPlace(f *testing.F) {
	f.Add([]byte{0x18, 0x18, 0x18, 0x18, 0x18})
	f.Add([]byte{0x18, 0x19, 0x18, 0x19, 0x19, 0x18})
	f.Add([]byte{0x01, 0x7f, 0x33, 0xe2, 0x45, 0x45, 0x10, 0x9c, 0x9c})
	f.Add([]byte{0x18, 0xF0, 0x19, 0x1a, 0x1b})
	f.Add([]byte{0xF1, 0x18, 0x19, 0x1a, 0xF0, 0x20})
	f.Add([]byte{0x18, 0x19, 0xF2, 0x1a, 0x1b, 0x1c})
	f.Add([]byte{0xF3, 0x08, 0xF3, 0x08, 0x09, 0x07})
	f.Add([]byte{0xF4, 0xF5, 0xF6, 0x18, 0x19})
	f.Add([]byte{0xF7, 1, 0, 0, 0, 0, 0, 0, 0, 0xF6, 0x08, 0x09, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := fuzzSample(data)
		if len(xs) == 0 || len(xs) > 5000 {
			return
		}
		checkSummarizeInPlace(t, "fuzz", xs)
	})
}
