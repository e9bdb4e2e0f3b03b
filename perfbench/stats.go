package main

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples a reported percentile must have beyond
// it: a tail percentile read from fewer is one or two unlucky samples.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, and false
// when fewer than minBeyond samples lie beyond it, in which case the
// percentile must not be reported.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
