package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[max(1, rank(p, len(xs)))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps decimal percentiles such as 99.9 from rounding up
// a rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the percentiles a summary may report as its tail,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples above its nearest rank, so a tail figure always
// rests on ten samples; 50 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles with the "exclusive"
// interpolation of Python's statistics.quantiles(xs, n=4), so spreads
// match what that function reports (which extrapolates for very few
// samples). One sample gives itself, none gives zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure bounds are compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
