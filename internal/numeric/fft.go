package numeric

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"ivory/internal/parallel"
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
// use an in-place radix-4 Cooley-Tukey transform, other lengths Bluestein's
// chirp-z algorithm, so odd-length waveforms (common when a simulation
// window is set by a workload trace) need no padding.
func dft(n int, load func(buf []complex128)) []complex128 {
	if n&(n-1) == 0 {
		buf := make([]complex128, n)
		load(buf)
		fftPow2(buf, false)
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

// fftPow2 computes an in-place decimation-in-time FFT of a power-of-two
// length. inverse selects the conjugate twiddle direction (no
// normalization is applied here). After the bit-reversal permutation every
// pair of radix-2 stages (lengths L/2 and L) runs as one radix-4 stage, so
// the buffer is swept half as often; an odd number of stages starts with
// one twiddle-free radix-2 stage of length 2.
func fftPow2(a []complex128, inverse bool) {
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
	// run j of the last radix-2 stage; a stage of length L starts its runs
	// at every (n/L)-th entry.
	var seeds []complex128
	if n/2 > twiddleRun {
		seeds = make([]complex128, n/2/twiddleRun)
		for j := range seeds {
			seeds[j] = cmplx.Rect(1, sign*2*math.Pi*float64(j*twiddleRun)/float64(n))
		}
	}
	length := 1
	if bits.TrailingZeros(uint(n))%2 == 1 {
		for i := 0; i+1 < n; i += 2 {
			u, v := a[i], a[i+1]
			a[i], a[i+1] = u+v, u-v
		}
		length = 2
	}
	// A radix-4 stage of length L = 4q combines, for k in [0, q), the
	// length-L/2 butterflies (k, k+q) and (k+2q, k+3q) with twiddle
	// w2 = exp(sign*2πi*k/(L/2)) and the length-L butterflies (k, k+2q)
	// and (k+q, k+3q) with twiddles w1 = exp(sign*2πi*k/L) and w1 times
	// exp(sign*iπ/2) = sign*i, an exact swap of the parts.
	var steps1, steps2 [twiddleRun]complex128
	for ; 4*length <= n; length *= 4 {
		q, l := length, 4*length
		run := min(q, twiddleRun)
		stride := n / l
		for r := 0; r < run; r++ {
			steps1[r] = cmplx.Rect(1, sign*2*math.Pi*float64(r)/float64(l))
			steps2[r] = cmplx.Rect(1, sign*2*math.Pi*float64(r)/float64(l/2))
		}
		st1, st2 := steps1[:run], steps2[:run]
		for start := 0; start < n; start += l {
			for k0 := 0; k0 < q; k0 += run {
				x0 := a[start+k0 : start+k0+run]
				x1 := a[start+k0+q : start+k0+q+run]
				x2 := a[start+k0+2*q : start+k0+2*q+run]
				x3 := a[start+k0+3*q : start+k0+3*q+run]
				seed1, seed2 := complex(1, 0), complex(1, 0)
				if k0 > 0 {
					seed1 = seeds[k0/twiddleRun*stride]
					seed2 = seeds[k0/twiddleRun*2*stride]
				}
				radix4(x0, x1, x2, x3, st1, st2, seed1, seed2, k0 > 0, sign)
			}
		}
	}
}

// radix4 runs one run of radix-4 butterflies in place. The twiddles are
// w1 = seed1*steps1[r] and w2 = seed2*steps2[r], or the steps alone when
// seeded is false (the run at k0 = 0, whose seeds are exactly 1).
func radix4(x0, x1, x2, x3, steps1, steps2 []complex128, seed1, seed2 complex128, seeded bool, sign float64) {
	x1 = x1[:len(x0)]
	x2 = x2[:len(x0)]
	x3 = x3[:len(x0)]
	steps1 = steps1[:len(x0)]
	steps2 = steps2[:len(x0)]
	for r := range x0 {
		w1, w2 := steps1[r], steps2[r]
		if seeded {
			w1, w2 = seed1*w1, seed2*w2
		}
		t1, t3 := x1[r]*w2, x3[r]*w2
		b0, b1 := x0[r]+t1, x0[r]-t1
		b2, b3 := x2[r]+t3, x2[r]-t3
		u, v := b2*w1, b3*w1
		// v times sign*i.
		v = complex(-sign*imag(v), sign*real(v))
		x0[r], x2[r] = b0+u, b0-u
		x1[r], x3[r] = b1+v, b1-v
	}
}

// bluesteinPlan holds what an n-point Bluestein transform needs that
// depends on n alone: the chirp w[k] = exp(-iπk²/n) for k in [0, n), and
// the forward m-point transform of the chirp kernel (conj w wrapped around
// both ends of an m-point buffer, m >= 2n-1 a power of two). The kernel is
// even (entry m-k equals entry k), so its transform is too, and the plan
// keeps only bins 0..m/2. A plan is immutable once built and shared by
// every caller of its length.
type bluesteinPlan struct {
	chirp  []complex128
	kernel []complex128
}

// Bluestein plans are memoized per length, at most bluesteinPlanLimit of
// them and only up to bluesteinPlanMaxM convolution points (4 MB a plan),
// so a stream of one-off lengths holds at most 16 MB; longer lengths build
// a plan per call.
const (
	bluesteinPlanLimit = 4
	bluesteinPlanMaxM  = 1 << 18
)

var bluesteinPlans = parallel.NewMemo[int, *bluesteinPlan](bluesteinPlanLimit)

func newBluesteinPlan(n int) *bluesteinPlan {
	m := bluesteinSize(n)
	ws := make([]complex128, n)
	b := make([]complex128, m)
	chirp(n, func(k int, w complex128) {
		ws[k] = w
		b[k] = cmplx.Conj(w)
		if k > 0 {
			b[m-k] = cmplx.Conj(w)
		}
	})
	fftPow2(b, false)
	return &bluesteinPlan{chirp: ws, kernel: append([]complex128(nil), b[:m/2+1]...)}
}

// bluesteinSize is the convolution length of an n-point Bluestein
// transform: the smallest power of two >= 2n-1.
func bluesteinSize(n int) int {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	return m
}

// bluestein computes an arbitrary-length DFT as a convolution with the
// chirp kernel, using power-of-two FFTs of the plan's length m. load
// writes the samples into the first n slots of the convolution buffer,
// which also carries the result. With the kernel's transform in the plan,
// a call costs two m-point FFTs.
func bluestein(n int, load func(buf []complex128)) []complex128 {
	var p *bluesteinPlan
	if bluesteinSize(n) <= bluesteinPlanMaxM {
		p = bluesteinPlans.Get(n, func() *bluesteinPlan { return newBluesteinPlan(n) })
	} else {
		p = newBluesteinPlan(n)
	}
	m := 2 * (len(p.kernel) - 1)
	a := make([]complex128, m)
	load(a[:n])
	for k, w := range p.chirp {
		a[k] *= w
	}
	fftPow2(a, false)
	for i, b := range p.kernel {
		a[i] *= b
	}
	for i := len(p.kernel); i < m; i++ {
		a[i] *= p.kernel[m-i]
	}
	fftPow2(a, true)
	scale := complex(1/float64(len(a)), 0)
	for k, w := range p.chirp {
		a[k] = a[k] * scale * w
	}
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
