package bench

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// A failed operation enters xs as +Inf, so it misses every limit. xs is
// sorted in place. It returns NaN for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// Beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func Beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count), leaving xs unchanged.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
