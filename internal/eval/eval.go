// Package eval turns raw evaluation results into the paper's metrics —
// nominal skew, Clock Latency Range (CLR), latencies, slew and capacitance
// accounting — and renders ASCII tables for the experiment harnesses.
package eval

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/ctree"
)

// Metrics summarizes one clock network evaluated across a corner set.
type Metrics struct {
	// Skew is the nominal skew at the reference (fast) corner: the worse of
	// the rising and falling max−min arrival spreads, ps.
	Skew float64
	// CLR is the contest objective: greatest sink latency at the set's
	// worst-case corner minus least sink latency at its reference corner,
	// ps.
	CLR float64
	// MaxLatency is the greatest sink latency at the reference corner (the
	// quantity Table V reports), ps.
	MaxLatency float64
	// MaxSlew is the worst 10-90% slew anywhere, across corners, ps.
	MaxSlew float64
	// SlewViol counts slew-limit violations across corners.
	SlewViol int
	// TotalCap is wire + buffer capacitance, fF.
	TotalCap float64
	// CapPct is TotalCap as a percentage of the benchmark limit (0 when no
	// limit was given).
	CapPct float64

	// CLRSpread generalizes CLR to the whole set: the greatest sink
	// latency at ANY corner minus the least sink latency at ANY corner,
	// ps. For the two-corner contest set with extreme roles it equals CLR;
	// for PVT grids and Monte Carlo sets it is the honest envelope.
	CLRSpread float64 `json:",omitempty"`
	// WorstCorner names the corner that produced the greatest sink latency
	// (the CLRSpread attribution).
	WorstCorner string `json:",omitempty"`
	// PerCorner is the per-corner latency/slew breakdown, in set order.
	PerCorner []CornerStat `json:",omitempty"`

	// Yield statistics, populated only for Monte Carlo corner sets:
	// MCSamples counts the variation samples the statistics were computed
	// over (non-zero exactly when the set was MC, so a catastrophic 0%
	// yield is distinguishable from "no yield analysis ran"); Yield is the
	// weight fraction of samples with no slew violation (and, when a
	// capacitance limit applies, it is corner-independent so it gates
	// all-or-nothing); LatP50/LatP95 are weighted quantiles of the
	// per-sample greatest sink latency, ps.
	MCSamples int     `json:",omitempty"`
	Yield     float64 `json:",omitempty"`
	LatP50    float64 `json:",omitempty"`
	LatP95    float64 `json:",omitempty"`
}

// CornerStat is one corner's row of the per-corner breakdown.
type CornerStat struct {
	Name     string
	Vdd      float64
	MinLat   float64 // least sink latency at this corner, ps
	MaxLat   float64 // greatest sink latency at this corner, ps
	Skew     float64 // local skew at this corner, ps
	MaxSlew  float64 // worst slew at this corner, ps
	SlewViol int
	Weight   float64 `json:",omitempty"`
}

// latencies is one corner result's extreme sink arrivals per launch edge,
// gathered in one pass over the result.
type latencies struct{ rmin, rmax, fmin, fmax float64 }

// minMax returns the least and greatest sink latency over both launch
// edges.
func (l latencies) minMax() (min, max float64) {
	return math.Min(l.rmin, l.fmin), math.Max(l.rmax, l.fmax)
}

func (l latencies) skew() float64 { return analysis.SkewOf(l.rmin, l.rmax, l.fmin, l.fmax) }

// FromResults computes metrics for the tree a from per-corner results
// aligned with the corner set (results[i] evaluated at set.Corners[i]). Corner roles come
// from the set — never from slice positions — so any number of corners
// with any role assignment reports correctly. capLimit may be zero. It
// returns an error when results and set disagree (missing or extra
// corners, nil entries) rather than mis-attributing a corner.
func FromResults(a *ctree.Arena, set *corners.Set, results []*analysis.Result, capLimit float64) (Metrics, error) {
	m := Metrics{TotalCap: a.TotalCap()}
	if capLimit > 0 {
		m.CapPct = 100 * m.TotalCap / capLimit
	}
	if set == nil {
		return m, fmt.Errorf("eval: nil corner set")
	}
	if len(results) == 0 {
		return m, fmt.Errorf("eval: no corner results (want %d)", len(set.Corners))
	}
	if len(results) != len(set.Corners) {
		return m, fmt.Errorf("eval: %d corner results for a %d-corner set", len(results), len(set.Corners))
	}
	for i, r := range results {
		if r == nil {
			return m, fmt.Errorf("eval: nil result for corner %q", set.Corners[i].Name)
		}
	}
	lats := make([]latencies, len(results))
	for i, r := range results {
		l := &lats[i]
		l.rmin, l.rmax, l.fmin, l.fmax = r.Extremes()
	}
	ref := lats[set.Ref]
	m.Skew = ref.skew()
	refMin, refMax := ref.minMax()
	_, worstMax := lats[set.Worst].minMax()
	m.MaxLatency = refMax
	m.CLR = worstMax - refMin
	globalMin, globalMax := math.Inf(1), math.Inf(-1)
	m.PerCorner = make([]CornerStat, len(results))
	for i, r := range results {
		if r.MaxSlew > m.MaxSlew {
			m.MaxSlew = r.MaxSlew
		}
		m.SlewViol += r.SlewViol
		c := set.Corners[i]
		lo, hi := lats[i].minMax()
		m.PerCorner[i] = CornerStat{
			Name: c.Name, Vdd: c.Vdd,
			MinLat: lo, MaxLat: hi, Skew: lats[i].skew(),
			MaxSlew: r.MaxSlew, SlewViol: r.SlewViol,
			Weight: c.Weight,
		}
		if lo < globalMin {
			globalMin = lo
		}
		if hi > globalMax {
			globalMax = hi
			m.WorstCorner = c.Name
		}
	}
	m.CLRSpread = globalMax - globalMin
	if set.MC {
		m.mcStats(set, results, lats, capLimit)
	}
	return m, nil
}

// mcStats fills the Monte Carlo yield and quantile fields from the
// per-sample results, honoring per-corner weights.
func (m *Metrics) mcStats(set *corners.Set, results []*analysis.Result, lats []latencies, capLimit float64) {
	type sample struct{ lat, w float64 }
	samples := make([]sample, 0, len(results))
	var totalW, passW float64
	capOK := capLimit <= 0 || m.TotalCap <= capLimit
	for i, r := range results {
		w := set.Corners[i].W()
		_, hi := lats[i].minMax()
		samples = append(samples, sample{lat: hi, w: w})
		totalW += w
		if r.SlewViol == 0 && capOK {
			passW += w
		}
	}
	if totalW <= 0 {
		return
	}
	m.MCSamples = len(results)
	m.Yield = passW / totalW
	// Typed sort: the reflect-based sort.Slice costs an allocation and
	// interface dispatch per comparison on the mc hot path.
	slices.SortFunc(samples, func(a, b sample) int {
		switch {
		case a.lat < b.lat:
			return -1
		case a.lat > b.lat:
			return 1
		}
		return 0
	})
	quantile := func(q float64) float64 {
		target := q * totalW
		acc := 0.0
		for _, s := range samples {
			acc += s.w
			if acc >= target {
				return s.lat
			}
		}
		return samples[len(samples)-1].lat
	}
	m.LatP50 = quantile(0.50)
	m.LatP95 = quantile(0.95)
}

func (m Metrics) String() string {
	return fmt.Sprintf("skew=%.3fps clr=%.2fps lat=%.1fps slew=%.1fps cap=%.1fpF (%.1f%%)",
		m.Skew, m.CLR, m.MaxLatency, m.MaxSlew, m.TotalCap/1000, m.CapPct)
}

// Table renders rows as a fixed-width ASCII table. Every row must have
// len(headers) cells.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
