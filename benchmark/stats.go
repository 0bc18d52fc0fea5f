package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 ≤ q ≤ 1) of an
// ascending slice: the element at index ⌊q·(n−1)⌋, the rule
// cmd/polybench reports with, so the two tools' percentiles compare.
// Empty input reads 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// median is the conventional median (mean of the two middle values for
// an even count).  It copies and sorts; empty input reads 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the "exclusive"
// method — the rule of Python's statistics.quantiles(values, n=4),
// which is what the acceptance driver computes spreads with.  Fewer
// than two values return that value twice.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// ms renders a duration in the unit the metric tables use.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b with 0/0 = 0, for per-commit rates on empty windows.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
