package numeric

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"ivory/internal/parallel"
)

// fft is the complex transform behind AmplitudeSpectra, on a copy of x.
func fft(x []complex128) []complex128 {
	return dft(len(x), func(buf []complex128) { copy(buf, x) })
}

func TestFFTKnownSpike(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	y := fft(x)
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
	y := fft(x)
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
	y := fft(c)
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
	y := ifft(fft(x))
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
		y := fft(x)
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
	fa, fb, fs := fft(a), fft(b), fft(sum)
	for k := range fs {
		want := 2*fa[k] + 3*fb[k]
		if cmplx.Abs(fs[k]-want) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

// TestRealFFTMagnitude checks AmplitudeSpectra's scaling on one signal.
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
	freq, amp, _, err := AmplitudeSpectra(x, nil, 1/fs)
	if err != nil {
		t.Fatal(err)
	}
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

// oracleAmplitude is the direct O(n) DFT of bin k of x about its mean,
// scaled to a single-sided amplitude: the reference AmplitudeSpectra is
// held to. The angle is reduced as (k*j mod n) so large bins stay exact.
func oracleAmplitude(x []float64, k int) float64 {
	n := len(x)
	var sum float64
	for _, v := range x {
		sum += v
	}
	mean := sum / float64(n)
	var re, im float64
	for j, v := range x {
		ang := -2 * math.Pi * float64((k*j)%n) / float64(n)
		re += (v - mean) * math.Cos(ang)
		im += (v - mean) * math.Sin(ang)
	}
	a := math.Hypot(re, im) / float64(n)
	if k != 0 && 2*k != n {
		a *= 2
	}
	return a
}

// spectraSignal is a rail-like test signal: an offset, three tones and a
// little noise.
func spectraSignal(n int, dt float64, seed int64, tones []float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for j := range x {
		t := float64(j) * dt
		x[j] = 0.95 + 1e-5*rng.NormFloat64()
		for i, f := range tones {
			x[j] += 1e-3 * float64(i+1) * math.Sin(2*math.Pi*f*t+float64(i))
		}
	}
	return x
}

// checkSpectrum compares amp at the given bins with the oracle, within
// 1e-12 of the largest oracle amplitude among them.
func checkSpectrum(t *testing.T, label string, x, amp []float64, bins []int) {
	t.Helper()
	want := make([]float64, len(bins))
	peak := 0.0
	for i, k := range bins {
		want[i] = oracleAmplitude(x, k)
		peak = math.Max(peak, want[i])
	}
	for i, k := range bins {
		if d := math.Abs(amp[k] - want[i]); d > 1e-12*peak {
			t.Errorf("%s: bin %d = %.17g, oracle %.17g (off by %.3g of the peak)", label, k, amp[k], want[i], d/peak)
		}
	}
}

func TestAmplitudeSpectraMatchesDFT(t *testing.T) {
	const dt = 1e-9
	tones := []float64{1e6, 53e6, 97e6}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 17, 64, 100, 231, 256, 1000, 1024} {
		x := spectraSignal(n, dt, int64(n), tones)
		y := spectraSignal(n, dt, int64(n)+1000, []float64{3e6, 41e6, 130e6})
		bins := make([]int, n/2+1)
		for k := range bins {
			bins[k] = k
		}
		freq, one, none, err := AmplitudeSpectra(x, nil, dt)
		if err != nil {
			t.Fatal(err)
		}
		if len(freq) != len(bins) || len(one) != len(bins) || none != nil {
			t.Fatalf("n=%d: single spectrum has %d freqs, %d amps, ampY %v", n, len(freq), len(one), none)
		}
		checkSpectrum(t, fmt.Sprintf("n=%d single", n), x, one, bins)
		_, ax, ay, err := AmplitudeSpectra(x, y, dt)
		if err != nil {
			t.Fatal(err)
		}
		checkSpectrum(t, fmt.Sprintf("n=%d pair x", n), x, ax, bins)
		checkSpectrum(t, fmt.Sprintf("n=%d pair y", n), y, ay, bins)
	}
}

// TestAmplitudeSpectraFig6Length checks the length Fig 6 transforms (40 µs
// at 1 ns, plus the initial sample) at the bins around its three tones.
func TestAmplitudeSpectraFig6Length(t *testing.T) {
	const (
		n  = 40001
		dt = 1e-9
	)
	tones := []float64{1e6, 53e6, 97e6}
	x := spectraSignal(n, dt, 1, tones)
	y := spectraSignal(n, dt, 2, tones)
	for i := range y {
		y[i] = 0.3*y[i] + 1e-4*math.Sin(2*math.Pi*20e6*float64(i)*dt)
	}
	freq, ax, ay, err := AmplitudeSpectra(x, y, dt)
	if err != nil {
		t.Fatal(err)
	}
	var bins []int
	for _, f := range tones {
		c := int(math.Round(f * n * dt))
		if math.Abs(freq[c]-f) > 1/(n*dt) {
			t.Fatalf("bin %d is at %g Hz, want near %g", c, freq[c], f)
		}
		for k := c - 3; k <= c+3; k++ {
			bins = append(bins, k)
		}
	}
	checkSpectrum(t, "pair x", x, ax, bins)
	checkSpectrum(t, "pair y", y, ay, bins)
	_, one, _, err := AmplitudeSpectra(y, nil, dt)
	if err != nil {
		t.Fatal(err)
	}
	checkSpectrum(t, "single", y, one, bins)
}

func TestAmplitudeSpectraRejectsUnequalLengths(t *testing.T) {
	for _, c := range []struct{ nx, ny int }{{4, 3}, {3, 4}, {5, 0}, {0, 2}} {
		if _, _, _, err := AmplitudeSpectra(make([]float64, c.nx), make([]float64, c.ny), 1); err == nil {
			t.Errorf("lengths %d and %d: no error", c.nx, c.ny)
		}
	}
	freq, ax, ay, err := AmplitudeSpectra(nil, nil, 1)
	if err != nil || freq != nil || ax != nil || ay != nil {
		t.Errorf("empty input: %v %v %v %v", freq, ax, ay, err)
	}
}

// fig9SpectrumLength is the length Fig 9 transforms: the settled second
// half of a 4 µs SPICE run at 32 samples per 217 MHz tone period.
func fig9SpectrumLength() int {
	samples := int(math.Ceil(4e-6*(217e6*32))) + 1
	return samples - samples/2
}

// TestAmplitudeSpectraConcurrent runs AmplitudeSpectra from several
// goroutines at once over power-of-two, odd, Fig 6 and Fig 9 lengths
// (run it under -race): every caller must get the spectra a lone caller
// gets, bit for bit, and each must agree with the direct DFT at a spread
// of bins, around the tones included.
func TestAmplitudeSpectraConcurrent(t *testing.T) {
	const dt = 1e-9
	tones := []float64{1e6, 53e6, 97e6}
	lengths := []int{1024, 4096, 231, 1001, 40001, fig9SpectrumLength()}
	type want struct{ x, y, ax, ay []float64 }
	wants := make([]want, len(lengths))
	for i, n := range lengths {
		x := spectraSignal(n, dt, int64(n), tones)
		y := spectraSignal(n, dt, int64(n)+1, tones)
		for k := range y {
			y[k] *= 0.5
		}
		_, ax, ay, err := AmplitudeSpectra(x, y, dt)
		if err != nil {
			t.Fatal(err)
		}
		var bins []int
		for _, f := range tones {
			c := int(math.Round(f * float64(n) * dt))
			for k := max(c-2, 0); k <= min(c+2, n/2); k++ {
				bins = append(bins, k)
			}
		}
		bins = append(bins, 0, n/3, n/2)
		checkSpectrum(t, fmt.Sprintf("n=%d x", n), x, ax, bins)
		checkSpectrum(t, fmt.Sprintf("n=%d y", n), y, ay, bins)
		wants[i] = want{x, y, ax, ay}
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers*len(lengths))
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range lengths {
				i := (j + c) % len(lengths)
				w := wants[i]
				_, ax, ay, err := AmplitudeSpectra(w.x, w.y, dt)
				if err != nil {
					errs <- err
					return
				}
				for k := range ax {
					if bitsDiffer(ax[k], w.ax[k]) || bitsDiffer(ay[k], w.ay[k]) {
						errs <- fmt.Errorf("caller %d, n=%d: bin %d differs from the lone caller's", c, lengths[i], k)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBluesteinPlanMemoCap fills a fresh plan memo with more lengths than
// it may hold, from concurrent callers, and checks it kept exactly its cap:
// a second pass over the lengths hits once per resident plan. A length
// whose kernel is over bluesteinPlanMaxM points is planned per call and
// never stored.
func TestBluesteinPlanMemoCap(t *testing.T) {
	saved := bluesteinPlans
	bluesteinPlans = parallel.NewMemo[int, *bluesteinPlan](bluesteinPlanLimit)
	t.Cleanup(func() { bluesteinPlans = saved })
	var lengths []int
	for n := 3; len(lengths) < bluesteinPlanLimit+3; n += 2 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, bluesteinPlanMaxM/2+1)
	run := func(n int) {
		if _, _, _, err := AmplitudeSpectra(spectraSignal(n, 1e-9, int64(n), []float64{1e7}), nil, 1e-9); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	for _, n := range lengths {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			run(n)
		}(n)
	}
	wg.Wait()
	h0, _ := bluesteinPlans.Stats()
	for _, n := range lengths {
		run(n)
	}
	if h1, _ := bluesteinPlans.Stats(); h1-h0 != bluesteinPlanLimit {
		t.Errorf("second pass hit %d plans, want the cap %d", h1-h0, bluesteinPlanLimit)
	}
}
