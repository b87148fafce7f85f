package main

import (
	"math"
	"sort"
)

// The benchmark computes every percentile itself, as an exact rank on a
// sorted slice, so that a change to the histograms of the code under test
// (internal/obs) cannot move a reported number.

// percentile returns the q-quantile (0 <= q <= 1) of sorted as the value of
// rank ceil(q*n), the smallest value with at least a share q of the samples
// at or below it. An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v, the mean of the two middle values
// for an even count.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default, exclusive method), which
// is what the acceptance check of the benchmark contract uses. It needs at
// least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median: the steadiness figure the bounds in BENCHMARK.json are set
// against.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// nsToFloat converts a slice of nanosecond durations to float64s scaled by
// 1/div (1e3 for microseconds, 1e6 for milliseconds).
func nsToFloat(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, x := range ns {
		out[i] = float64(x) / div
	}
	return out
}
