package main

import (
	"math"
	"sort"
	"time"
)

// minP99Samples is the sample count below which a p99 is not reported:
// with fewer than 1,000 samples fewer than ten lie beyond the 99th
// percentile, so the figure would be little more than the maximum.
const minP99Samples = 1000

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest value with at least q·n values at or below it. xs need
// not be sorted; it is not modified. An empty slice yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tail returns the nearest-rank q-quantile and true when at least
// minBeyond samples lie beyond it, or false: a p99 needs minP99Samples,
// and a percentile without enough samples is missing, never replaced by
// the maximum.
func tail(xs []float64, q float64) (float64, bool) {
	if float64(len(xs))*(1-q) < minBeyond-1e-9 {
		return 0, false
	}
	return percentile(xs, q), true
}

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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
