package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 9}, {1, 10}, {-1, 1}, {2, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns, the rule the acceptance driver measures spreads with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, 4, 6.5},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarizeAppliesTheDriversRules(t *testing.T) {
	tps := metricDef{name: "commit_tps", unit: "1/s", better: "higher", bound: 0.05}
	quiet := summarize([]float64{1000, 1002, 998, 1001, 999, 1000}, tps)
	if quiet.verdict != "quiet" {
		t.Errorf("steady runs judged %q: %+v", quiet.verdict, quiet)
	}
	// Second half 10 % lower on a higher-is-better metric: worse by 10 %.
	drift := summarize([]float64{1000, 1000, 1000, 900, 900, 900}, tps)
	if !near(drift.worse, 0.10) || drift.verdict != "OUTSIDE BOUND" {
		t.Errorf("drifting runs: %+v", drift)
	}
	// The same drift upward is an improvement, not a violation of drift…
	up := summarize([]float64{900, 900, 900, 1000, 1000, 1000}, tps)
	if up.worse >= 0 {
		t.Errorf("improving runs counted as worse: %+v", up)
	}
	// …and setup_s is exempt from the spread rule but not from drift.
	setup := metricDef{name: "setup_s", unit: "s", better: "lower", bound: 0.10}
	wide := summarize([]float64{2.0, 2.6, 2.3, 2.0, 2.6, 2.3}, setup)
	if wide.verdict == "OUTSIDE BOUND" {
		t.Errorf("setup_s judged on spread: %+v", wide)
	}
}
