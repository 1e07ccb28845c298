package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by nearest rank over the exact
// samples: no buckets, so nothing below the sample resolution is hidden.
// It sorts xs in place and returns NaN for an empty slice.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

// median returns the median of xs (the mean of the middle two for an even
// count), sorting xs in place; NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
