package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail figure may take; tail
// picks the highest one that has at least ten samples beyond it, so a
// tail number is never an extrapolation from a handful of samples.
var tailLadder = []float64{0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of tailLadder with at least ten
// samples beyond it, and its value. With fewer than 20 samples no
// percentile qualifies and the median is returned as q = 0.5.
func tail(xs []float64) (q, v float64) {
	s := sortedCopy(xs)
	for _, q := range tailLadder {
		if float64(len(s))*(1-q) >= 10 {
			return q, quantile(s, q)
		}
	}
	return 0.5, median(xs)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
