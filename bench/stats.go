package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank p-quantile of xs, lowered to the highest
// percentile that still has at least ten samples beyond it, but never below
// the median rank. It also returns the percentile actually reported, so a
// caller can state it next to the sample count. p99 needs 1000 samples.
func tail(xs []float64, p float64) (value, reported float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank > n-10 {
		rank = n - 10
	}
	if floor := (n + 1) / 2; rank < floor {
		rank = floor
	}
	return s[rank-1], float64(rank) / float64(n)
}

// geomean returns the geometric mean of positive xs, or 0 for no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" interpolation of Python's statistics.quantiles(xs, n=4), the
// rule the repeatability check is specified in. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
