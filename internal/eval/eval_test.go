package eval

import (
	"math"
	"strings"
	"testing"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

func twoSinkTree(tk *tech.Tech) (*ctree.Arena, int, int) {
	tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	a := tr.AddSink(tr.Root(), geom.Pt(100, 0), 30, "a")
	b := tr.AddSink(tr.Root(), geom.Pt(0, 100), 30, "b")
	return tr, int(a), int(b)
}

func TestFromResults(t *testing.T) {
	tk := tech.Default45()
	tr, a, b := twoSinkTree(tk)
	fast := &analysis.Result{
		Rise:    map[int]float64{a: 100, b: 104},
		Fall:    map[int]float64{a: 101, b: 103},
		MaxSlew: 60,
	}
	slow := &analysis.Result{
		Rise:    map[int]float64{a: 130, b: 140},
		Fall:    map[int]float64{a: 131, b: 138},
		MaxSlew: 80,
	}
	m, err := FromResults(tr, corners.FromTech(tk), []*analysis.Result{fast, slow}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Skew at the fast corner: rise spread 4, fall spread 2 -> 4.
	if m.Skew != 4 {
		t.Errorf("skew=%v want 4", m.Skew)
	}
	// CLR: max slow (140) - min fast (100).
	if m.CLR != 40 {
		t.Errorf("CLR=%v want 40", m.CLR)
	}
	if m.MaxLatency != 104 {
		t.Errorf("MaxLatency=%v want 104", m.MaxLatency)
	}
	if m.MaxSlew != 80 {
		t.Errorf("MaxSlew=%v want 80", m.MaxSlew)
	}
	if m.TotalCap <= 0 || math.Abs(m.CapPct-100*m.TotalCap/100000) > 1e-9 {
		t.Errorf("cap accounting wrong: %+v", m)
	}
	// The two-corner contest set with extreme roles: the spread equals CLR
	// and the slow corner takes the attribution.
	if m.CLRSpread != m.CLR {
		t.Errorf("CLRSpread=%v want CLR=%v for the contest pair", m.CLRSpread, m.CLR)
	}
	if m.WorstCorner != tk.Worst().Name {
		t.Errorf("WorstCorner=%q want %q", m.WorstCorner, tk.Worst().Name)
	}
	if len(m.PerCorner) != 2 || m.PerCorner[0].MaxLat != 104 || m.PerCorner[1].MaxLat != 140 {
		t.Errorf("per-corner breakdown wrong: %+v", m.PerCorner)
	}
	// Not an MC set: no yield statistics.
	if m.Yield != 0 || m.LatP50 != 0 || m.LatP95 != 0 {
		t.Errorf("non-MC set must not report yield stats: %+v", m)
	}
}

// TestFromResultsSingleCorner: a one-corner set is legal — reference and
// worst coincide, CLR degenerates to that corner's own latency spread.
func TestFromResultsSingleCorner(t *testing.T) {
	tk := tech.Default45()
	tr, a, b := twoSinkTree(tk)
	only := &analysis.Result{
		Rise: map[int]float64{a: 100, b: 110},
		Fall: map[int]float64{a: 100, b: 110},
	}
	set := &corners.Set{Spec: "one", Corners: []tech.Corner{{Name: "tt@1.1V", Vdd: 1.1}}}
	m, err := FromResults(tr, set, []*analysis.Result{only}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.CLR != 10 || m.CLRSpread != 10 {
		t.Errorf("single-corner CLR=%v spread=%v want 10", m.CLR, m.CLRSpread)
	}
	if m.MaxLatency != 110 || m.WorstCorner != "tt@1.1V" {
		t.Errorf("single-corner attribution wrong: %+v", m)
	}
}

// TestFromResultsManyCorners: with >2 corners the roles — not the slice
// ends — pick the CLR legs, and the spread scans every corner.
func TestFromResultsManyCorners(t *testing.T) {
	tk := tech.Default45()
	tr, a, b := twoSinkTree(tk)
	mk := func(lo, hi float64) *analysis.Result {
		return &analysis.Result{
			Rise: map[int]float64{a: lo, b: hi},
			Fall: map[int]float64{a: lo, b: hi},
		}
	}
	// The fastest corner sits in the middle, the slowest first: positional
	// indexing would compute garbage here.
	set := &corners.Set{
		Spec: "custom3",
		Corners: []tech.Corner{
			{Name: "slow", Vdd: 0.95},
			{Name: "fast", Vdd: 1.25},
			{Name: "typ", Vdd: 1.10},
		},
		Ref:   1,
		Worst: 0,
	}
	rs := []*analysis.Result{mk(150, 170), mk(100, 104), mk(120, 130)}
	m, err := FromResults(tr, set, rs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.CLR != 170-100 {
		t.Errorf("CLR=%v want 70 (worst.max - ref.min via roles)", m.CLR)
	}
	if m.Skew != 4 {
		t.Errorf("Skew=%v want 4 (at the reference corner)", m.Skew)
	}
	if m.CLRSpread != 170-100 || m.WorstCorner != "slow" {
		t.Errorf("spread attribution wrong: spread=%v worst=%q", m.CLRSpread, m.WorstCorner)
	}
	if len(m.PerCorner) != 3 {
		t.Errorf("PerCorner rows=%d want 3", len(m.PerCorner))
	}
}

// TestFromResultsEmpty: empty or misaligned results are an error, not an
// index panic and not silently-zero timing metrics.
func TestFromResultsEmpty(t *testing.T) {
	tk := tech.Default45()
	tr, _, _ := twoSinkTree(tk)
	set := corners.FromTech(tk)
	if _, err := FromResults(tr, set, nil, 0); err == nil {
		t.Error("empty results must error")
	}
	if _, err := FromResults(tr, nil, nil, 0); err == nil {
		t.Error("nil set must error")
	}
	one := &analysis.Result{Rise: map[int]float64{1: 1}, Fall: map[int]float64{1: 1}}
	if _, err := FromResults(tr, set, []*analysis.Result{one}, 0); err == nil {
		t.Error("fewer results than corners must error")
	}
	if _, err := FromResults(tr, set, []*analysis.Result{one, nil}, 0); err == nil {
		t.Error("nil result entry must error")
	}
	// The capacitance accounting still runs on the error path, so callers
	// that only want cap numbers can keep them.
	m, _ := FromResults(tr, set, nil, 1000)
	if m.TotalCap <= 0 {
		t.Error("cap accounting should survive the error path")
	}
}

// TestFromResultsMCYield: Monte Carlo sets report weighted yield and
// latency quantiles over the samples.
func TestFromResultsMCYield(t *testing.T) {
	tk := tech.Default45()
	tr, a, b := twoSinkTree(tk)
	mk := func(hi float64, viol int) *analysis.Result {
		return &analysis.Result{
			Rise:     map[int]float64{a: hi - 5, b: hi},
			Fall:     map[int]float64{a: hi - 5, b: hi},
			SlewViol: viol,
		}
	}
	set := &corners.Set{
		Spec: "mc:4:1",
		Corners: []tech.Corner{
			{Name: "s0", Vdd: 1.1},
			{Name: "s1", Vdd: 1.1},
			{Name: "s2", Vdd: 1.1},
			{Name: "s3", Vdd: 1.1},
		},
		Ref: 0, Worst: 3, MC: true,
	}
	rs := []*analysis.Result{mk(100, 0), mk(110, 0), mk(120, 1), mk(130, 0)}
	m, err := FromResults(tr, set, rs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.MCSamples != 4 {
		t.Errorf("MCSamples=%d want 4 (marks yield stats as meaningful even at 0%% yield)", m.MCSamples)
	}
	if m.Yield != 0.75 {
		t.Errorf("yield=%v want 0.75 (one violating sample of four)", m.Yield)
	}
	if m.LatP50 != 110 {
		t.Errorf("LatP50=%v want 110", m.LatP50)
	}
	if m.LatP95 != 130 {
		t.Errorf("LatP95=%v want 130", m.LatP95)
	}
	// Weighted: doubling the weight of the slowest sample drags the median
	// up one rank.
	set.Corners[3].Weight = 4
	m, err = FromResults(tr, set, rs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.LatP50 != 130 {
		t.Errorf("weighted LatP50=%v want 130", m.LatP50)
	}
}

func TestViolated(t *testing.T) {
	if (Metrics{SlewViol: 1}).Violated(0) == false {
		t.Error("slew violation must trip")
	}
	if (Metrics{TotalCap: 200}).Violated(100) == false {
		t.Error("cap over limit must trip")
	}
	if (Metrics{TotalCap: 50}).Violated(100) {
		t.Error("clean metrics flagged")
	}
	if (Metrics{TotalCap: 200}).Violated(0) {
		t.Error("no limit: cap cannot violate")
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"name", "val"}, [][]string{{"a", "1"}, {"longer-name", "22"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines=%d want 4", len(lines))
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[3], "longer-name") {
		t.Errorf("table content wrong:\n%s", out)
	}
	// All rows align to the same width.
	if len(lines[1]) < len("longer-name") {
		t.Error("separator shorter than widest cell")
	}
}

func TestMetricsString(t *testing.T) {
	s := Metrics{Skew: 3.14159, CLR: 12.5, MaxLatency: 500, MaxSlew: 80, TotalCap: 12345, CapPct: 67.8}.String()
	for _, want := range []string{"3.142", "12.50", "500", "80", "12.3", "67.8"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}
