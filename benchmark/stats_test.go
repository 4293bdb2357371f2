package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, including its extrapolation on
// two samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.9); !near(got, 90) {
		t.Errorf("p90 of 1..99 = %v, want 90", got)
	}
	if got := percentile([]float64{3, 1, 2}, 0.99); got != 3 {
		t.Errorf("p99 of three samples = %v, want the maximum", got)
	}
	if got := percentile([]float64{3, 1, 2}, 0.01); got != 1 {
		t.Errorf("p1 of three samples = %v, want the minimum", got)
	}
}

// TestTailLevel checks the rule for reporting a timing's tail: the highest
// percentile with at least ten samples beyond it.
func TestTailLevel(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.9, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		p, ok := tailLevel(c.n)
		if ok != c.ok || (ok && p != c.p) {
			t.Errorf("tailLevel(%d) = %v %v, want %v %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "run_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	layer := metricDef{Name: "spice.cne_s", Unit: "s", Better: "lower"}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	cases := []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{10.5, 10.6, 10.4, 10.5, 10.55}, verdictOK},
		{"beyond bound", lower, steady, []float64{11.5, 11.6, 11.4, 11.5, 11.55}, verdictRegressed},
		{"improved", lower, steady, []float64{8, 8.1, 7.9, 8, 8.05}, verdictOK},
		{"higher is better", higher, steady, []float64{8, 8.1, 7.9, 8, 8.05}, verdictRegressed},
		{"noisy baseline", lower, []float64{6, 10, 14, 8, 12}, []float64{10, 10, 10, 10, 10}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{16, 20, 24, 18, 22}, []float64{10, 11, 12, 13, 14}, verdictOK},
		{"per-layer metrics are not judged", layer, steady, []float64{20, 20, 20}, verdictInfo},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if worse, _ := verdict(lower, steady, []float64{11, 11, 11}); !near(worse, 0.1) {
		t.Errorf("worse = %v, want 0.1", worse)
	}
}
