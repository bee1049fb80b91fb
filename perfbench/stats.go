package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqMean returns the interquartile mean of xs: the mean of the values
// between the first and third quartiles (by rank). Like the median it
// ignores outlying passes; unlike the median it blends passes from the
// two speed regimes this kind of shared host alternates between, instead
// of jumping from one to the other. 0 for an empty slice.
func iqMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// quantile returns the exact nearest-rank q-quantile of xs (the smallest
// value with at least q of the sample at or below it), or 0 for an empty
// slice. xs is sorted in place.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanBias measures what an empty time.Now/time.Since span reads: the
// overhead every per-call span in the traced run carries. Spans subtract
// it so a cheap call is not charged the timer's own cost.
func spanBias() time.Duration {
	const n = 200_000
	var rounds []float64
	for round := 0; round < 5; round++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		rounds = append(rounds, float64(sum)/n)
	}
	return time.Duration(median(rounds))
}
