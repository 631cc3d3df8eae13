package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidate tail ranks a timing may be reported at.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.5, 99.9}

// tailPercentile returns the highest candidate percentile that has at least
// ten of n samples strictly beyond it, or 0 when not even the median has.
// Fewer than ten samples past a percentile make it a statement about single
// outliers, not about the distribution.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		atOrBelow := int(math.Ceil(float64(n) * p / 100))
		if n-atOrBelow >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartiles of xs with the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so spreads
// computed here match ones computed from the printed results.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
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
