package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be reported at all.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs — the smallest
// sample with at least q·n samples at or below it — and how many samples
// lie beyond it in sorted order. xs is not modified; NaN is returned for
// no samples.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return s[rank-1], n - rank
}

// percentile is quantile under the ten-beyond rule: it fails when fewer
// than minBeyond samples lie beyond the q-quantile, because a tail
// percentile resting on a handful of samples moves with every run.
func percentile(name string, xs []float64, q float64) (float64, error) {
	v, beyond := quantile(xs, q)
	if beyond < minBeyond {
		return v, fmt.Errorf("%s: %d samples leave %d beyond the %.0fth percentile, need %d",
			name, len(xs), beyond, q*100, minBeyond)
	}
	return v, nil
}

// median is the middle value (mean of the middle two for an even count)
// — used for the handful of repetitions a run makes of set-up and
// restart.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean, NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
