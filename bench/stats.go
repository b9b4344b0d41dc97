package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of sorted
// samples: the smallest sample with at least p% of the samples at or below
// it. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of unsorted samples (mean of the two middle ones for even counts).
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

// tailPermille are the candidates of the percentile rule, in permille so
// that sample counts compare exactly: p99.9, p99, p95, p90.
var tailPermille = []int{999, 990, 950, 900}

// highestPercentile applies the percentile rule: the highest tail
// percentile that still has at least ten samples beyond it (beyond its
// nearest rank). ok is false when not even p90 qualifies (fewer than 100
// samples) and only the median may be reported.
func highestPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailPermille {
		rank := (n*pm + 999) / 1000
		if n-rank >= 10 {
			return float64(pm) / 10, true
		}
	}
	return 50, false
}

// latency_ms is one fixed statistic per kind of workload, so that both
// sides of a comparison always report the same one however many samples a
// faster or slower program produces: the median pipeline for the batch
// workloads, whose 30-50 operations per run qualify no tail percentile by
// the rule above, and p95 of all requests for the serve workloads, whose
// 1000+ requests qualify it with room to spare. A serve run with fewer
// than minServeSamples requests is refused rather than reported.
const (
	serveTailPercentile = 95
	minServeSamples     = 200 // p95 needs ten samples beyond it
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the default "exclusive" method),
// so spreads computed here match the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of one metric over several runs as a
// share of the median: the quartile distance with four or more runs, the
// full range with two or three, and unknown (NaN) with one.
func spread(runs []float64) float64 {
	m := median(runs)
	switch {
	case len(runs) < 2 || m == 0:
		return math.NaN()
	case len(runs) < 4:
		s := sortedCopy(runs)
		return math.Abs((s[len(s)-1] - s[0]) / m)
	default:
		q1, q3 := quartiles(runs)
		return math.Abs((q3 - q1) / m)
	}
}
