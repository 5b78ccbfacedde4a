package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice
// by the nearest-rank rule: the smallest element with at least q of the
// samples at or below it. Nearest rank never invents a value between
// two samples, so a quantile of integer-nanosecond latencies is itself
// a latency that was measured. An empty slice yields 0.
func quantile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), q)]
}

// nearestRank is the zero-based index of the q-quantile among n > 0
// ascending samples.
func nearestRank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// median sorts xs in place and returns its nearest-rank median.
func median[T int64 | uint32 | float64](xs []T) T {
	slices.Sort(xs)
	return quantile(xs, 0.5)
}

// tailQuantile picks the highest of the offered quantiles that still
// has at least ten samples beyond it, falling back to the maximum when
// the sample is too small for any of them — the rule that keeps a p99
// from being quoted off a handful of samples. It reports the quantile
// it used (1 for the maximum).
func tailQuantile[T int64 | uint32 | float64](sorted []T, offered ...float64) (T, float64) {
	n := len(sorted)
	for _, q := range offered {
		if beyond := n - int(math.Ceil(q*float64(n))); beyond >= 10 {
			return quantile(sorted, q), q
		}
	}
	return quantile(sorted, 1), 1
}
