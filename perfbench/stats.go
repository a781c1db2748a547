package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported percentile must leave beyond
// it. A tail percentile resting on fewer samples is one or two outliers,
// not a property of the system.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and the
// number of samples strictly after it in rank order. Empty input yields
// NaN. A failed operation is passed in as +Inf, so it always lands beyond
// any finite limit.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	// The epsilon keeps p·n from rounding up past an exact integer rank
	// (0.99·1000 must give rank 990, not 991).
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// median is the middle value, or the mean of the two middle values for an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads this benchmark prints match the ones an outside check
// computes from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
