package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// bitsDiffer reports exact (bit-level) inequality — the selection-based
// quantiles must reproduce the sort-based ones exactly, not approximately.
func bitsDiffer(a, b float64) bool {
	return math.Float64bits(a) != math.Float64bits(b)
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !ApproxEqual(s.Min, 1, 0) || !ApproxEqual(s.Max, 5, 0) {
		t.Errorf("basic fields wrong: %+v", s)
	}
	if !ApproxEqual(s.Mean, 3, 0) || !ApproxEqual(s.Median, 3, 0) {
		t.Errorf("mean/median wrong: %+v", s)
	}
	if !ApproxEqual(s.Q1, 2, 0) || !ApproxEqual(s.Q3, 4, 0) {
		t.Errorf("quartiles wrong: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Error("empty sample should be zero Summary")
	}
}

// TestQuantileEdges pins the selection quantile at the ends of the range
// and on a single sample.
func TestQuantileEdges(t *testing.T) {
	quant := func(xs []float64, q float64) float64 {
		return quantileSelect(append([]float64(nil), xs...), q)
	}
	xs := []float64{3, 1, 2}
	if !ApproxEqual(quant(xs, 0), 1, 0) || !ApproxEqual(quant(xs, 1), 3, 0) {
		t.Error("quantile edge cases wrong")
	}
	if !ApproxEqual(quant(xs, 0.5), 2, 0) {
		t.Error("median wrong")
	}
	if !ApproxEqual(quant([]float64{7}, 0.3), 7, 0) {
		t.Error("single-element quantile wrong")
	}
}

func TestPeakToPeak(t *testing.T) {
	xs := []float64{-1, 0, 3}
	if !ApproxEqual(PeakToPeak(xs), 4, 0) {
		t.Error("PeakToPeak wrong")
	}
	if PeakToPeak(nil) != 0 {
		t.Error("empty-slice behavior wrong")
	}
}

func TestClamp(t *testing.T) {
	if !ApproxEqual(Clamp(5, 0, 1), 1, 0) || !ApproxEqual(Clamp(-5, 0, 1), 0, 0) || !ApproxEqual(Clamp(0.5, 0, 1), 0.5, 0) {
		t.Error("Clamp wrong")
	}
}

// Property: whiskers always lie within [Min, Max] and quartiles are ordered.
func TestSummarizeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		ordered := s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
		whiskOK := s.WhiskerLo >= s.Min && s.WhiskerHi <= s.Max && s.WhiskerLo <= s.WhiskerHi
		return ordered && whiskOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PeakToPeak is translation invariant and non-negative.
func TestPeakToPeakInvariance(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + shift
		}
		p1, p2 := PeakToPeak(xs), PeakToPeak(ys)
		return p1 >= 0 && math.Abs(p1-p2) < 1e-9*(1+math.Abs(shift))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sortedSummary is the pre-selection reference implementation: full sort,
// then quantile interpolation on the sorted data. SummarizeInPlace must
// reproduce its order statistics exactly.
func sortedSummary(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	out := Summary{
		N:      n,
		Min:    s[0],
		Max:    s[n-1],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
	}
	iqr := out.Q3 - out.Q1
	lo, hi := out.Q1-1.5*iqr, out.Q3+1.5*iqr
	out.WhiskerLo, out.WhiskerHi = out.Max, out.Min
	for _, v := range s {
		if v >= lo && v < out.WhiskerLo {
			out.WhiskerLo = v
		}
		if v <= hi && v > out.WhiskerHi {
			out.WhiskerHi = v
		}
	}
	return out
}

// quantileSorted is the q-quantile of the sorted sample s, interpolating
// linearly between adjacent order statistics.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// TestSummarizeSelectionMatchesSort checks the selection-based summary
// against the full-sort reference on a spread of sizes, including
// duplicates and already-ordered data.
func TestSummarizeSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]float64{
		{3},
		{2, 1},
		{5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{9, 8, 7, 6, 5, 4, 3, 2, 1},
	}
	for n := 10; n <= 10000; n *= 10 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		cases = append(cases, xs)
		dup := make([]float64, n)
		for i := range dup {
			dup[i] = float64(rng.Intn(7))
		}
		cases = append(cases, dup)
	}
	for ci, xs := range cases {
		want := sortedSummary(xs)
		got := Summarize(xs) // must not permute xs
		if bitsDiffer(got.Min, want.Min) || bitsDiffer(got.Max, want.Max) ||
			bitsDiffer(got.Q1, want.Q1) || bitsDiffer(got.Median, want.Median) ||
			bitsDiffer(got.Q3, want.Q3) ||
			bitsDiffer(got.WhiskerLo, want.WhiskerLo) || bitsDiffer(got.WhiskerHi, want.WhiskerHi) {
			t.Errorf("case %d (n=%d): selection summary diverges from sort:\n got %+v\nwant %+v",
				ci, len(xs), got, want)
		}
		// In-place variant returns the same statistics on a scratch copy.
		scratch := make([]float64, len(xs))
		copy(scratch, xs)
		inPlace := SummarizeInPlace(scratch)
		if inPlace != got {
			t.Errorf("case %d: SummarizeInPlace diverges from Summarize:\n got %+v\nwant %+v",
				ci, inPlace, got)
		}
	}
}

// TestSelectKth pins the selection contract: xs[k] lands on its sorted-order
// value with a partition around it.
func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(20))
		}
		sorted := make([]float64, n)
		copy(sorted, xs)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		work := make([]float64, n)
		copy(work, xs)
		if got := selectKth(work, k); bitsDiffer(got, sorted[k]) {
			t.Fatalf("trial %d: selectKth(%d) = %v, want %v", trial, k, got, sorted[k])
		}
		for i := 0; i < k; i++ {
			if work[i] > work[k] {
				t.Fatalf("trial %d: partition violated left of k", trial)
			}
		}
		for i := k + 1; i < n; i++ {
			if work[i] < work[k] {
				t.Fatalf("trial %d: partition violated right of k", trial)
			}
		}
	}
}

// TestLinearSystemStepAllocFree guards the zero-alloc stepping contract the
// PDN transient engine relies on: after construction, Step must not
// allocate, with unchained inputs or with chained ones (u0 = the last u1).
func TestLinearSystemStepAllocFree(t *testing.T) {
	a := NewMatrixFrom([][]float64{{-1, 0.5}, {0.25, -2}})
	b := NewMatrixFrom([][]float64{{1, 0}, {0, 1}})
	sys, err := NewLinearSystem(a, b, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0}
	u0 := []float64{0.1, 0}
	u1 := []float64{0.1, 0.2}
	if n := testing.AllocsPerRun(100, func() { sys.Step(x, u0, u1) }); n != 0 {
		t.Errorf("LinearSystem.Step allocates %.0f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sys.Step(x, u1, u1) }); n != 0 {
		t.Errorf("chained LinearSystem.Step allocates %.0f objects per call, want 0", n)
	}
}

// TestMulVecSolveIntoMatchAllocating checks the Into variants agree with the
// allocating originals and are themselves allocation-free.
func TestMulVecSolveIntoMatchAllocating(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}})
	x := []float64{1, -2, 0.5}
	want := m.MulVec(x)
	dst := make([]float64, 3)
	m.MulVecInto(dst, x)
	for i := range want {
		if bitsDiffer(dst[i], want[i]) {
			t.Fatalf("MulVecInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{3, 9, 1}
	wantX := f.Solve(rhs)
	gotX := make([]float64, 3)
	f.SolveInto(gotX, rhs)
	for i := range wantX {
		if bitsDiffer(gotX[i], wantX[i]) {
			t.Fatalf("SolveInto[%d] = %v, want %v", i, gotX[i], wantX[i])
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		m.MulVecInto(dst, x)
		f.SolveInto(gotX, rhs)
	}); n != 0 {
		t.Errorf("Into variants allocate %.0f objects per call, want 0", n)
	}
}

// droopTrace is a rail-voltage-like sample: ripple, noise and load-step
// droops that recover exponentially.
func droopTrace(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	droop := 0.0
	for i := range xs {
		if rng.Intn(500) == 0 {
			droop += 0.02 + 0.03*rng.Float64()
		}
		droop *= 0.995
		xs[i] = 0.9 - droop + 2e-3*math.Sin(float64(i)/7) + 5e-4*rng.NormFloat64()
	}
	return xs
}

// BenchmarkSummarizeInPlace times the quartile step of one
// case-study-sized voltage trace: the bucketed search against the nested
// quickselect it replaced, each on a fresh copy of the trace.
func BenchmarkSummarizeInPlace(b *testing.B) {
	src := droopTrace(10001, 1)
	mn, mx := MinMax(src)
	work := make([]float64, len(src))
	var s Summary
	b.Run("bucketed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, src)
			if !bucketQuartiles(work, mn, mx, &s) {
				b.Fatal("bucketed path declined a finite, spread sample")
			}
		}
	})
	b.Run("quickselect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, src)
			selectQuartiles(work, &s)
		}
	})
}

// sameValue is bit equality, except that the two zeros count as one value:
// when a sample holds both, which of them lands on a tied rank, or is met
// first by the whisker scan, depends on how the buffer was permuted.
func sameValue(a, b float64) bool {
	return !bitsDiffer(a, b) || (math.Float64bits(a)|math.Float64bits(b))<<1 == 0
}

// checkSummarizeInPlace holds SummarizeInPlace on a copy of xs to the
// sort-based reference bit for bit, and, for samples that must take the
// nested-quickselect path (any NaN or ±Inf, or all samples equal), its
// quartiles to that path's. With a NaN the reference's order is not
// defined, so only the quickselect comparison applies.
func checkSummarizeInPlace(t *testing.T, label string, xs []float64) {
	t.Helper()
	got := SummarizeInPlace(append([]float64(nil), xs...))
	nonFinite, hasNaN, constant := false, false, true
	for _, v := range xs {
		nonFinite = nonFinite || math.IsInf(v, 0) || math.IsNaN(v)
		hasNaN = hasNaN || math.IsNaN(v)
		constant = constant && !bitsDiffer(v, xs[0])
	}
	if !hasNaN {
		want := sortedSummary(xs)
		if got.N != want.N || !sameValue(got.Min, want.Min) || !sameValue(got.Max, want.Max) ||
			bitsDiffer(got.Q1, want.Q1) || bitsDiffer(got.Median, want.Median) || bitsDiffer(got.Q3, want.Q3) ||
			!sameValue(got.WhiskerLo, want.WhiskerLo) || !sameValue(got.WhiskerHi, want.WhiskerHi) {
			t.Fatalf("%s (n=%d): SummarizeInPlace diverges from the sorted reference:\n got %+v\nwant %+v",
				label, len(xs), got, want)
		}
	}
	if nonFinite || constant {
		var want Summary
		selectQuartiles(append([]float64(nil), xs...), &want)
		if bitsDiffer(got.Q1, want.Q1) || bitsDiffer(got.Median, want.Median) || bitsDiffer(got.Q3, want.Q3) {
			t.Fatalf("%s (n=%d): quartiles %v %v %v, quickselect path %v %v %v",
				label, len(xs), got.Q1, got.Median, got.Q3, want.Q1, want.Median, want.Q3)
		}
	}
}

// summarySamples returns the sample shapes the quartile search must get
// exactly right at size n: spread and clustered values, heavy ties,
// constant runs, two values, ordered input, zeros of both signs, extreme
// magnitudes and non-finite values.
func summarySamples(rng *rand.Rand, n int) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	run := 0.0
	out := map[string][]float64{
		"normal":   gen(func(int) float64 { return rng.NormFloat64() }),
		"droop":    droopTrace(n, rng.Int63()),
		"ties":     gen(func(int) float64 { return float64(rng.Intn(5)) * 0.1 }),
		"constant": gen(func(int) float64 { return 0.9 }),
		"twoValue": gen(func(int) float64 { return []float64{0.85, 0.95}[rng.Intn(2)] }),
		"runs": gen(func(i int) float64 {
			if i%(1+n/7) == 0 {
				run = rng.NormFloat64()
			}
			return run
		}),
		"ascending":  gen(func(i int) float64 { return float64(i) }),
		"descending": gen(func(i int) float64 { return -float64(i) * 1e-3 }),
		"zeros":      gen(func(int) float64 { return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)] }),
		"magnitudes": gen(func(int) float64 {
			return math.Ldexp(rng.NormFloat64(), rng.Intn(2000)-1000)
		}),
		"extremes": gen(func(int) float64 {
			return []float64{math.MaxFloat64, -math.MaxFloat64, 5e-324, 0.5}[rng.Intn(4)]
		}),
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		xs := gen(func(int) float64 { return rng.NormFloat64() })
		xs[rng.Intn(n)] = bad
		out[fmt.Sprintf("with %v", bad)] = xs
	}
	return out
}

// TestSummarizeInPlaceMatchesSort is the seeded property test of the
// bucketed quartiles: every sample shape at every size 1..300, then at a
// spread of sizes up to 5000.
func TestSummarizeInPlaceMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sizes := []int{}
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 511, 1023, 1024, 1025, 2047, 3001, 4096, 4999, 5000)
	for _, n := range sizes {
		for label, xs := range summarySamples(rng, n) {
			checkSummarizeInPlace(t, label, xs)
		}
	}
}
