package numeric

import (
	"math"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x. The input length may be
// arbitrary: power-of-two lengths use an in-place radix-2 Cooley-Tukey
// transform, other lengths fall back to Bluestein's chirp-z algorithm so that
// spectrum analysis of odd-length waveforms (common when a simulation window
// is set by a workload trace) needs no padding. The input is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	copy(out, x)
	if n <= 1 {
		return out
	}
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out
	}
	return bluestein(out)
}

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
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution, using
// radix-2 FFTs of length >= 2n-1 rounded up to a power of two.
func bluestein(x []complex128) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	// Chirp: w[k] = exp(-i*pi*k^2/n)
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		w[k] = cmplx.Rect(1, ang)
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	scale := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * w[k]
	}
	return out
}

// RealFFTMagnitude computes the single-sided amplitude spectrum of a real
// signal sampled at interval dt. It returns parallel slices of frequencies
// (Hz) and amplitudes (same units as x), covering bins 0..n/2. Amplitudes of
// non-DC bins are doubled to account for the discarded negative frequencies.
func RealFFTMagnitude(x []float64, dt float64) (freq, amp []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	spec := FFT(cx)
	half := n/2 + 1
	freq = make([]float64, half)
	amp = make([]float64, half)
	fs := 1 / dt
	for k := 0; k < half; k++ {
		freq[k] = float64(k) * fs / float64(n)
		a := cmplx.Abs(spec[k]) / float64(n)
		if k != 0 && !(n%2 == 0 && k == n/2) {
			a *= 2
		}
		amp[k] = a
	}
	return freq, amp
}
