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
// permute xs, partially ordering the buffer around the quartile positions
// (O(n) selection) instead of fully sorting it (O(n log n)). The quartiles
// are exact order statistics, identical to the sorted computation. Use it on
// scratch buffers in hot loops — the case study summarizes a ~10k-sample
// voltage trace per simulation cell.
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
	if n >= 4 {
		// The median select partitions xs around its index kM (prefix <=
		// xs[kM] <= suffix), so xs[:kM+1] holds exactly the kM+1 smallest
		// samples and xs[kM+1:] the rest: Q1 and Q3 each select within
		// their own half instead of the full buffer. The quartiles remain
		// the exact order statistics of the whole sample.
		kM := int(0.5 * float64(n-1))
		out.Median = quantileSelect(xs, 0.5)
		out.Q1 = subQuantile(xs[:kM+1], 0, 0.25*float64(n-1))
		out.Q3 = subQuantile(xs[kM+1:], kM+1, 0.75*float64(n-1))
	} else {
		out.Q1 = quantileSelect(xs, 0.25)
		out.Median = quantileSelect(xs, 0.5)
		out.Q3 = quantileSelect(xs, 0.75)
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
