package main

import (
	"math"
	"slices"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// tail returns the highest sample that still has tailBeyond samples above it
// in sorted order, and the percentile it stands at: the share of samples at
// or below it, rounded down. ok is false when there are too few samples for
// any percentile to qualify.
func tail(xs []float64) (value float64, percentile int, ok bool) {
	n := len(xs)
	k := n - tailBeyond - 1
	if k < 0 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[k], 100 * (k + 1) / n, true
}
