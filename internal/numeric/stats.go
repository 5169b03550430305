package numeric

import "math"

// Summary holds descriptive statistics of a sample, matching what the
// paper's box plots (Fig. 10) display.
type Summary struct {
	N              int
	Min, Max       float64
	Mean, Std      float64
	Q1, Median, Q3 float64
	// WhiskerLo/WhiskerHi follow the Tukey convention: the most extreme
	// samples within 1.5*IQR of the quartiles.
	WhiskerLo, WhiskerHi float64
}

// Summarize computes descriptive statistics of xs. An empty sample returns
// the zero Summary. The input is not modified.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	return SummarizeInPlace(s)
}

// SummarizeInPlace computes the same statistics as Summarize but is free to
// permute xs, which lets it find the quartiles in O(n) instead of sorting
// (O(n log n)). The quartiles are exact order statistics, identical to the
// sorted computation. Use it on scratch buffers in hot loops — the case
// study summarizes a ~10k-sample voltage trace per simulation cell.
//
// Q1, the median and Q3 interpolate between the order statistics at
// floor(q(n-1)) and the one after it, six ranks in all. For n >= 4 finite,
// non-constant samples, bucketQuartiles finds them with one histogram pass
// and one gather of the buckets holding them. Shorter, non-finite or
// constant samples select them with nested quickselect.
func SummarizeInPlace(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	var sum, sumsq float64
	mn, mx := xs[0], xs[0]
	for _, v := range xs {
		sum += v
		sumsq += v * v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	out := Summary{
		N:    n,
		Min:  mn,
		Max:  mx,
		Mean: mean,
		Std:  math.Sqrt(variance),
	}
	// sum-sum is NaN exactly when some sample is NaN or ±Inf (or the sum
	// overflowed).
	if n < 4 || math.IsNaN(sum-sum) || !bucketQuartiles(xs, mn, mx, &out) {
		selectQuartiles(xs, &out)
	}
	iqr := out.Q3 - out.Q1
	lo, hi := out.Q1-1.5*iqr, out.Q3+1.5*iqr
	out.WhiskerLo, out.WhiskerHi = out.Max, out.Min
	for _, v := range xs {
		if v >= lo && v < out.WhiskerLo {
			out.WhiskerLo = v
		}
		if v <= hi && v > out.WhiskerHi {
			out.WhiskerHi = v
		}
	}
	return out
}

// selectQuartiles fills out's Q1, Median and Q3 by nested quickselect,
// permuting xs.
func selectQuartiles(xs []float64, out *Summary) {
	n := len(xs)
	if n < 4 {
		out.Q1 = quantileSelect(xs, 0.25)
		out.Median = quantileSelect(xs, 0.5)
		out.Q3 = quantileSelect(xs, 0.75)
		return
	}
	// The median select partitions xs around its index kM (prefix <=
	// xs[kM] <= suffix), so xs[:kM+1] holds exactly the kM+1 smallest
	// samples and xs[kM+1:] the rest: Q1 and Q3 each select within their
	// own half instead of the full buffer. The quartiles remain the exact
	// order statistics of the whole sample.
	kM := int(0.5 * float64(n-1))
	out.Median = quantileSelect(xs, 0.5)
	out.Q1 = subQuantile(xs[:kM+1], 0, 0.25*float64(n-1))
	out.Q3 = subQuantile(xs[kM+1:], kM+1, 0.75*float64(n-1))
}

// quartileBuckets is the largest histogram bucketQuartiles uses. Its
// counts live on the stack.
const quartileBuckets = 1024

// bucketQuartiles fills out's Q1, Median and Q3 from the finite sample xs
// (n >= 4) with minimum mn and maximum mx, permuting xs. It reports false,
// leaving out alone, when the samples are constant, or their range or the
// bucket scale overflows.
//
// Bucket b(v) = int((v-mn)·scale) is monotone in v: v < w implies
// b(v) <= b(w), so every sample of a lower bucket lies below every sample
// of a higher one, and a rank's order statistic is an order statistic of
// its own bucket. One pass counts the buckets; a walk of the counts finds
// the (at most six) buckets that hold the six target ranks and each
// rank's position among those buckets' samples; a second pass gathers
// those samples to the front of xs, and selection within them gives the
// exact values.
func bucketQuartiles(xs []float64, mn, mx float64, out *Summary) bool {
	width := mx - mn
	if !(width > 0) || math.IsInf(width, 0) {
		return false
	}
	n := len(xs)
	nb := min(n, quartileBuckets)
	scale := float64(nb) / width
	if math.IsInf(scale, 0) {
		return false
	}
	bucket := func(v float64) int {
		return min(int((v-mn)*scale), nb-1)
	}
	var hist [quartileBuckets]int32
	for _, v := range xs {
		hist[bucket(v)]++
	}
	// The six ranks, ascending for n >= 4: each quartile's floor(q(n-1))
	// and the rank after it.
	qs := [3]float64{0.25, 0.5, 0.75}
	var ranks [6]int
	for i, q := range qs {
		ranks[2*i] = int(q * float64(n-1))
		ranks[2*i+1] = ranks[2*i] + 1
	}
	// Walk the counts: a bucket holding a rank is marked with a negative
	// count, and the rank becomes its position among the marked buckets'
	// samples.
	var local [6]int
	j, cum, gathered := 0, 0, 0
	for b := 0; b < nb && j < len(ranks); b++ {
		c := int(hist[b])
		if ranks[j] >= cum+c {
			cum += c
			continue
		}
		for ; j < len(ranks) && ranks[j] < cum+c; j++ {
			local[j] = ranks[j] - cum + gathered
		}
		hist[b] = -1
		gathered += c
		cum += c
	}
	g := 0
	for i, v := range xs {
		if hist[bucket(v)] < 0 {
			xs[i], xs[g] = xs[g], v
			g++
		}
	}
	// Select the ranks in ascending order: after selecting rank r, xs[r:g]
	// holds the gathered samples from rank r up, so the next select
	// narrows to it.
	var vals [6]float64
	base := 0
	for i, r := range local {
		vals[i] = selectKth(xs[base:g], r-base)
		base = r
	}
	interp := func(i int) float64 {
		pos := qs[i] * float64(n-1)
		frac := pos - math.Floor(pos)
		a, b := vals[2*i], vals[2*i+1]
		return a + frac*(b-a)
	}
	out.Q1, out.Median, out.Q3 = interp(0), interp(1), interp(2)
	return true
}

// quantileSelect returns the q-quantile of xs by partial selection — the
// exact value quantileSorted would produce on the sorted data, including the
// linear interpolation between adjacent order statistics. It may permute xs.
func quantileSelect(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	if q <= 0 {
		return selectKth(xs, 0)
	}
	if q >= 1 {
		return selectKth(xs, n-1)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return selectKth(xs, n-1)
	}
	a := selectKth(xs, lo)
	// After the select, xs[lo+1:] holds every sample above the lo-th order
	// statistic, so its minimum IS the (lo+1)-th — a scan, not a second
	// selection pass.
	b := xs[lo+1]
	for _, v := range xs[lo+2:] {
		if v < b {
			b = v
		}
	}
	return a + frac*(b-a)
}

// subQuantile interpolates the order statistics at floor(pos) and
// floor(pos)+1 of the full sample, given sub = a partition holding exactly
// the order statistics base..base+len(sub)-1. Both required statistics must
// lie inside sub; SummarizeInPlace's quartile positions guarantee that for
// n >= 4.
func subQuantile(sub []float64, base int, pos float64) float64 {
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	i := lo - base
	a := selectKth(sub, i)
	b := sub[i+1]
	for _, v := range sub[i+2:] {
		if v < b {
			b = v
		}
	}
	return a + frac*(b-a)
}

// selectKth partially orders xs so that xs[k] holds the value it would have
// after a full sort, with xs[:k] <= xs[k] <= xs[k+1:]. Iterative Hoare
// quickselect with a median-of-three pivot: deterministic (no randomness, so
// repeated runs permute identically) and O(n) expected.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// MinMax returns the minimum and maximum of xs. It panics on an empty slice
// because a min/max of nothing is a caller bug, not a data condition.
func MinMax(xs []float64) (mn, mx float64) {
	if len(xs) == 0 {
		panic("numeric: MinMax of empty slice")
	}
	mn, mx = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// PeakToPeak returns max(xs) - min(xs), the voltage-noise range metric used
// throughout the case study.
func PeakToPeak(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mn, mx := MinMax(xs)
	return mx - mn
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
