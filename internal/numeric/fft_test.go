package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFFTKnownSpike(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	y := FFT(x)
	for k, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*5*float64(i)/float64(n)), 0)
	}
	y := FFT(x)
	// Energy should concentrate in bins 5 and n-5 with magnitude n/2.
	if math.Abs(cmplx.Abs(y[5])-float64(n)/2) > 1e-9 {
		t.Errorf("|Y[5]| = %v, want %v", cmplx.Abs(y[5]), float64(n)/2)
	}
	for k := range y {
		if k == 5 || k == n-5 {
			continue
		}
		if cmplx.Abs(y[k]) > 1e-9 {
			t.Errorf("leakage at bin %d: %v", k, cmplx.Abs(y[k]))
		}
	}
}

// ifft is the inverse transform through the forward one:
// IFFT(x) = conj(FFT(conj(x))) / n.
func ifft(x []complex128) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	y := FFT(c)
	for i, v := range y {
		y[i] = cmplx.Conj(v) / complex(float64(len(x)), 0)
	}
	return y
}

func testRoundTrip(t *testing.T, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := ifft(FFT(x))
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-9 {
			t.Fatalf("n=%d: round trip mismatch at %d: %v vs %v", n, i, y[i], x[i])
		}
	}
}

func TestFFTRoundTripPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 1024} {
		testRoundTrip(t, n)
	}
}

func TestFFTRoundTripArbitraryLength(t *testing.T) {
	for _, n := range []int{3, 5, 7, 12, 100, 231, 1000} {
		testRoundTrip(t, n)
	}
}

// Parseval: sum |x|^2 == (1/n) sum |X|^2.
func TestFFTParseval(t *testing.T) {
	for _, n := range []int{16, 37, 128} {
		rng := rand.New(rand.NewSource(99))
		x := make([]complex128, n)
		var ex float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			ex += real(x[i]) * real(x[i])
		}
		y := FFT(x)
		var ey float64
		for _, v := range y {
			ey += real(v)*real(v) + imag(v)*imag(v)
		}
		ey /= float64(n)
		if math.Abs(ex-ey) > 1e-8*(1+ex) {
			t.Errorf("n=%d: Parseval violated: %v vs %v", n, ex, ey)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	n := 128
	rng := rand.New(rand.NewSource(5))
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), 0)
		b[i] = complex(rng.NormFloat64(), 0)
		sum[i] = 2*a[i] + 3*b[i]
	}
	fa, fb, fs := FFT(a), FFT(b), FFT(sum)
	for k := range fs {
		want := 2*fa[k] + 3*fb[k]
		if cmplx.Abs(fs[k]-want) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

func TestRealFFTMagnitude(t *testing.T) {
	// 1 V amplitude at 50 MHz sampled at 1 GHz over an integer number of
	// periods must show up as a 1 V bin at 50 MHz.
	fs := 1e9
	f0 := 50e6
	n := 1000 // 50 periods
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f0 * float64(i) / fs)
	}
	freq, amp := RealFFTMagnitude(x, 1/fs)
	// Locate 50 MHz bin.
	best := 0
	for k := range freq {
		if math.Abs(freq[k]-f0) < math.Abs(freq[best]-f0) {
			best = k
		}
	}
	if math.Abs(freq[best]-f0) > 1 {
		t.Fatalf("bin frequency %v, want %v", freq[best], f0)
	}
	if math.Abs(amp[best]-1) > 1e-6 {
		t.Errorf("amplitude at 50 MHz = %v, want 1", amp[best])
	}
}
