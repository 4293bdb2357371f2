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

// quartiles returns the first quartile, median and third quartile of xs by
// the rule of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here match those computed from a results
// file with Python. A single sample is its own quartiles; none gives NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-quantile (0 < p < 1) of xs with the same
// (n+1)p positioning as quartiles, clamped to the sample range.
func percentile(xs []float64, p float64) float64 {
	d := sorted(xs)
	if len(d) == 0 {
		return math.NaN()
	}
	h := p * float64(len(d)+1)
	if h <= 1 {
		return d[0]
	}
	if h >= float64(len(d)) {
		return d[len(d)-1]
	}
	lo := int(h)
	return d[lo-1] + (h-float64(lo))*(d[lo]-d[lo-1])
}

// tailLevels are the percentiles a timing may be reported at, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailLevel returns the highest percentile of tailLevels that has at least
// ten of n samples beyond it, and false when even the median has fewer.
func tailLevel(n int) (float64, bool) {
	for _, p := range tailLevels {
		// Round before comparing: (1-0.9)*100 is 9.999… in floating point.
		if math.Round((1-p)*float64(n)*1e6)/1e6 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// summary describes one set of timing samples: its count, quartiles and
// its tail at the highest percentile with ten samples beyond it (TailPct 0
// when there are too few samples for any).
type summary struct {
	N       int     `json:"n"`
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	if p, ok := tailLevel(len(xs)); ok {
		s.TailPct, s.Tail = 100*p, percentile(xs, p)
	}
	return s
}

// spread is the distance between the quartiles of xs as a share of their
// median: the run-to-run noise a bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// Verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // no bound: reported, never judged
)

// verdict judges set b against baseline a for one metric. worse is b's
// median change against a's in the metric's bad direction, as a share of
// a's median (positive means b is worse). When either set's spread exceeds
// the bound the change cannot be told from noise: the row is unresolved,
// unless every run of b reads better than every run of a.
func verdict(m metricDef, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Bound == 0 {
		return worse, verdictInfo
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(m, a, b) {
			return worse, verdictOK
		}
		return worse, verdictUnresolved
	}
	if worse > m.Bound {
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(m metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
