package numeric

import (
	"fmt"
	"math"
	"math/cmplx"
)

// AmplitudeSpectra returns the single-sided amplitude spectra of one or two
// real signals sampled at interval dt, each taken about its own mean (bin 0
// is zero up to rounding). freq holds the frequencies (Hz) of bins 0..n/2;
// ampX and ampY the amplitudes of x and y there, in the signals' units, with
// every bin other than DC and Nyquist doubled for the discarded negative
// frequencies.
//
// With y nil, x gets a plain transform and ampY is nil. Otherwise y must be
// as long as x, and the pair costs one complex transform: x + iy is
// transformed once and the two spectra are split out by conjugate symmetry,
// X[k] = (Z[k] + conj Z[n-k]) / 2 and Y[k] = (Z[k] - conj Z[n-k]) / 2i.
// The samples are written straight into the transform buffer.
func AmplitudeSpectra(x, y []float64, dt float64) (freq, ampX, ampY []float64, err error) {
	n := len(x)
	if y != nil && len(y) != n {
		return nil, nil, nil, fmt.Errorf("numeric: spectra of unequal lengths %d and %d", n, len(y))
	}
	if n == 0 {
		return nil, nil, nil, nil
	}
	mx, my := Mean(x), 0.0
	if y != nil {
		my = Mean(y)
	}
	z := dft(n, func(buf []complex128) {
		for k, v := range x {
			im := 0.0
			if y != nil {
				im = y[k] - my
			}
			buf[k] = complex(v-mx, im)
		}
	})
	// amp scales the magnitude of one two-sided bin to a single-sided
	// amplitude.
	amp := func(k int, mag float64) float64 {
		a := mag / float64(n)
		if k != 0 && 2*k != n {
			a *= 2
		}
		return a
	}
	half := n/2 + 1
	freq = make([]float64, half)
	ampX = make([]float64, half)
	if y != nil {
		ampY = make([]float64, half)
	}
	fs := 1 / dt
	for k := 0; k < half; k++ {
		freq[k] = float64(k) * fs / float64(n)
		if y == nil {
			ampX[k] = amp(k, cmplx.Abs(z[k]))
			continue
		}
		zc := cmplx.Conj(z[(n-k)%n])
		ampX[k] = amp(k, 0.5*cmplx.Abs(z[k]+zc))
		ampY[k] = amp(k, 0.5*cmplx.Abs(z[k]-zc))
	}
	return freq, ampX, ampY, nil
}

// dft returns the discrete Fourier transform of the n samples load writes
// into the buffer it is handed. The length may be arbitrary: powers of two
// use an in-place radix-2 Cooley-Tukey transform, other lengths Bluestein's
// chirp-z algorithm, so odd-length waveforms (common when a simulation
// window is set by a workload trace) need no padding.
func dft(n int, load func(buf []complex128)) []complex128 {
	if n&(n-1) == 0 {
		buf := make([]complex128, n)
		load(buf)
		fftRadix2(buf, false)
		return buf
	}
	return bluestein(n, load)
}

// twiddleRun is the length of the runs a stage's butterflies are taken
// in. The twiddle of butterfly k0+r is seed(k0) * step(r), both computed
// exactly, so it is off by a few ulps at any length, and no butterfly
// waits on the previous one's twiddle as a running w *= wl recurrence
// would make it (that recurrence also drifts by thousands of ulps over a
// 2^17-point stage).
const twiddleRun = 32

// fftRadix2 computes an in-place radix-2 DIT FFT. inverse selects the
// conjugate twiddle direction (no normalization is applied here).
func fftRadix2(a []complex128, inverse bool) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1
	}
	// seeds[j] = exp(sign*2πi*j*twiddleRun/n) is the twiddle that starts
	// run j of the last stage; a stage of length L starts its runs at every
	// (n/L)-th entry.
	var seeds []complex128
	if n/2 > twiddleRun {
		seeds = make([]complex128, n/2/twiddleRun)
		for j := range seeds {
			seeds[j] = cmplx.Rect(1, sign*2*math.Pi*float64(j*twiddleRun)/float64(n))
		}
	}
	var steps [twiddleRun]complex128
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		run := min(half, twiddleRun)
		stride := n / length
		// steps[r] = exp(sign*2πi*r/length) advances a run's seed by r.
		for r := 0; r < run; r++ {
			steps[r] = cmplx.Rect(1, sign*2*math.Pi*float64(r)/float64(length))
		}
		step := steps[:run]
		for start := 0; start < n; start += length {
			for k0 := 0; k0 < half; k0 += run {
				lo := a[start+k0 : start+k0+run]
				hi := a[start+k0+half : start+k0+half+run]
				if k0 == 0 {
					for r, w := range step {
						u, v := lo[r], hi[r]*w
						lo[r], hi[r] = u+v, u-v
					}
					continue
				}
				seed := seeds[k0/twiddleRun*stride]
				for r, w := range step {
					u, v := lo[r], hi[r]*(seed*w)
					lo[r], hi[r] = u+v, u-v
				}
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution, using
// radix-2 FFTs of length >= 2n-1 rounded up to a power of two. load writes
// the samples into the first n slots of the convolution buffer, which also
// carries the result. The chirp is recomputed where it is needed rather
// than stored.
func bluestein(n int, load func(buf []complex128)) []complex128 {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	load(a[:n])
	chirp(n, func(k int, w complex128) {
		a[k] *= w
		b[k] = cmplx.Conj(w)
		if k > 0 {
			b[m-k] = cmplx.Conj(w)
		}
	})
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	scale := complex(1/float64(m), 0)
	chirp(n, func(k int, w complex128) {
		a[k] = a[k] * scale * w
	})
	return a[:n]
}

// chirp calls visit(k, w[k]) for every k in [0, n), in no fixed order,
// with w[k] = exp(-iπk²/n). Since (n-k)² = k² + n² mod 2n, w[n-k] is
// (-1)^n w[k], so each sine and cosine serves two k.
func chirp(n int, visit func(k int, w complex128)) {
	for k := 0; 2*k <= n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		w := cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
		visit(k, w)
		if j := n - k; k > 0 && j != k {
			if n%2 == 1 {
				w = -w
			}
			visit(j, w)
		}
	}
}
