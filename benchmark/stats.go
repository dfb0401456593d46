package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics, 0 for an empty sample. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median — the spread BENCHMARK.json's bounds
// are set against — computed as Python's statistics.quantiles(xs, n=4)
// does (exclusive method), so -compare and the acceptance check agree.
// Fewer than two samples have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 { // i-th of the 3 quartile cut points
		pos := float64(i*(len(s)+1)) / 4
		j := int(pos)
		j = min(max(j, 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(cut(3)-cut(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0: the convention for a layer metric whose
// denominator did no work in this run.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
