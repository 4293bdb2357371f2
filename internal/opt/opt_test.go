package opt

import (
	"math"
	"reflect"
	"testing"

	"contango/internal/analysis"
	"contango/internal/buffering"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/eval"
	"contango/internal/geom"
	"contango/internal/spice"
	"contango/internal/tech"
)

// smallNetwork builds a modest buffered tree with deliberate imbalance (one
// subtree detoured) so the passes have something to optimize.
func smallNetwork(t *testing.T) (*Context, *tech.Tech) {
	t.Helper()
	tk := tech.Default45()
	sinks := []dme.Sink{
		{Loc: geom.Pt(3000, 1000), Cap: 30, Name: "a"},
		{Loc: geom.Pt(3000, 3000), Cap: 30, Name: "b"},
		{Loc: geom.Pt(5000, 1500), Cap: 30, Name: "c"},
		{Loc: geom.Pt(5200, 2600), Cap: 30, Name: "d"},
		{Loc: geom.Pt(4100, 400), Cap: 30, Name: "e"},
		{Loc: geom.Pt(2500, 2000), Cap: 30, Name: "f"},
	}
	a := dme.BuildZSTArena(tk, geom.Pt(0, 2000), sinks, dme.Options{})
	a.SourceR = 0.1
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	if _, err := buffering.BalancedInsertArena(a, comp, buffering.Options{}); err != nil {
		t.Fatal(err)
	}
	buffering.CorrectPolarityArena(a, comp, nil)
	// Imbalance: snake one sink edge hard.
	a.Snake[a.Sinks()[0]] += 1500
	cx := &Context{Tree: ctree.NewTree(a), Eng: spice.New(), CapLimit: 1e9, MaxRounds: 6}
	return cx, tk
}

func TestCNEAndBaselineCaching(t *testing.T) {
	cx, _ := smallNetwork(t)
	eng := cx.Eng.(*spice.Engine)
	_, m1, err := cx.CNE()
	if err != nil {
		t.Fatal(err)
	}
	runs := eng.Runs
	_, m2, err := cx.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Runs != runs {
		t.Error("Baseline should reuse the cached CNE")
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("cached metrics differ")
	}
	cx.invalidate()
	if _, _, err := cx.Baseline(); err != nil {
		t.Fatal(err)
	}
	if eng.Runs == runs {
		t.Error("invalidate should force a re-evaluation")
	}
}

func TestImproveLoopRevertsOnWorse(t *testing.T) {
	cx, _ := smallNetwork(t)
	_, m0, _ := cx.CNE()
	a := cx.arena()
	wlBefore := a.Wirelength()
	// A mutation that can only hurt: snake the slowest sink further.
	err := cx.improveLoop("test", MinSkew, func(res []*analysis.Result) bool {
		slowest := a.Sinks()[0]
		worst := -1.0
		for _, s := range a.Sinks() {
			if v := res[0].Rise[int(s)]; v > worst {
				worst, slowest = v, s
			}
		}
		a.Snake[slowest] += 2000
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Wirelength() != wlBefore {
		t.Error("harmful mutation was not reverted")
	}
	_, m1, _ := cx.Baseline()
	if m1.Skew > m0.Skew+1e-9 {
		t.Error("skew got worse despite IVC")
	}
}

func TestWorseRelativeViolations(t *testing.T) {
	cx := &Context{CapLimit: 100}
	base := eval.Metrics{SlewViol: 2, TotalCap: 120}
	if cx.worse(base, eval.Metrics{SlewViol: 2, TotalCap: 110}) {
		t.Error("equal violations with reduced cap must not be worse")
	}
	if !cx.worse(base, eval.Metrics{SlewViol: 3, TotalCap: 90}) {
		t.Error("more slew violations must be worse")
	}
	if !cx.worse(base, eval.Metrics{SlewViol: 2, TotalCap: 130}) {
		t.Error("cap further over the limit must be worse")
	}
	if cx.worse(base, eval.Metrics{SlewViol: 1, TotalCap: 95}) {
		t.Error("strictly better metrics flagged worse")
	}
}

func TestEstimateTwsPositive(t *testing.T) {
	cx, _ := smallNetwork(t)
	tws, err := EstimateTws(cx)
	if err != nil {
		t.Fatal(err)
	}
	if tws < 0 {
		t.Errorf("Tws=%v must be non-negative", tws)
	}
	// Probes must be reverted: everything back at the wide width.
	a := cx.arena()
	wide := int32(a.Tech.Wide())
	a.PreOrder(func(n int32) {
		if a.Parent[n] >= 0 && a.WidthIdx[n] != wide {
			t.Errorf("probe not reverted on node %d", n)
		}
	})
}

func TestEstimateTwnAndPairRevert(t *testing.T) {
	cx, _ := smallNetwork(t)
	a := cx.arena()
	wl := a.Wirelength()
	nodes := a.NumNodes()
	twn, twnSlew, err := EstimateTwn(cx, 25, false)
	if err != nil {
		t.Fatal(err)
	}
	if twn <= 0 || twnSlew <= 0 {
		t.Errorf("twn=%v twnSlew=%v must be positive", twn, twnSlew)
	}
	if math.Abs(a.Wirelength()-wl) > 1e-9 {
		t.Error("snake probes not reverted")
	}
	tpair, err := EstimateTpair(cx)
	if err != nil {
		t.Fatal(err)
	}
	if tpair <= 0 {
		t.Errorf("tpair=%v must be positive", tpair)
	}
	if a.NumNodes() != nodes {
		t.Error("pair probe not removed")
	}
	if err := cx.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWiresnakingReducesSkew(t *testing.T) {
	cx, _ := smallNetwork(t)
	_, m0, _ := cx.CNE()
	if err := TopDownWiresnaking(cx); err != nil {
		t.Fatal(err)
	}
	_, m1, _ := cx.Baseline()
	if m1.Skew > m0.Skew {
		t.Errorf("skew rose: %v -> %v", m0.Skew, m1.Skew)
	}
	if m1.SlewViol > m0.SlewViol {
		t.Errorf("slew violations rose: %d -> %d", m0.SlewViol, m1.SlewViol)
	}
	if err := cx.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPairInsertionPreservesPolarity(t *testing.T) {
	cx, _ := smallNetwork(t)
	a := cx.arena()
	parity := func(s int32) int {
		p := 0
		for cur := s; cur >= 0; cur = a.Parent[cur] {
			if a.Kind[cur] == ctree.Buffer {
				p ^= 1
			}
		}
		return p
	}
	before := map[int32]int{}
	for _, s := range a.Sinks() {
		before[s] = parity(s)
	}
	if err := PairInsertion(cx); err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Sinks() {
		if parity(s) != before[s] {
			t.Fatalf("pair insertion changed polarity of sink %d", s)
		}
	}
	if err := cx.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferSizingImprovesCLR(t *testing.T) {
	cx, _ := smallNetwork(t)
	_, m0, _ := cx.CNE()
	if err := BufferSizing(cx); err != nil {
		t.Fatal(err)
	}
	_, m1, _ := cx.Baseline()
	if m1.CLR > m0.CLR+1e-9 {
		t.Errorf("CLR rose: %v -> %v", m0.CLR, m1.CLR)
	}
	if err := cx.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSkewBufferSizingNeverWorsens(t *testing.T) {
	cx, _ := smallNetwork(t)
	_, m0, _ := cx.CNE()
	if err := SkewBufferSizing(cx); err != nil {
		t.Fatal(err)
	}
	_, m1, _ := cx.Baseline()
	if m1.Skew > m0.Skew+1e-9 {
		t.Errorf("skew rose: %v -> %v", m0.Skew, m1.Skew)
	}
}

func TestBottomLevelTuning(t *testing.T) {
	cx, _ := smallNetwork(t)
	_, m0, _ := cx.CNE()
	if err := BottomLevelTuning(cx); err != nil {
		t.Fatal(err)
	}
	_, m1, _ := cx.Baseline()
	if m1.Skew+m1.CLR > m0.Skew+m0.CLR+1e-9 {
		t.Errorf("combined objective rose: %v -> %v", m0.Skew+m0.CLR, m1.Skew+m1.CLR)
	}
	if err := cx.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrunkDetection(t *testing.T) {
	tk := tech.Default45()
	tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	a := tr.AddChildL(tr.Root(), ctree.Internal, geom.Pt(1000, 0))
	b := tr.AddChildL(a, ctree.Internal, geom.Pt(2000, 0))
	tr.AddSink(b, geom.Pt(3000, 100), 30, "x")
	tr.AddSink(b, geom.Pt(3000, -100), 30, "y")
	// b is the branching node (two children) and is excluded.
	trunk := Trunk(tr)
	if len(trunk) != 1 || trunk[0] != a {
		t.Errorf("trunk has %d nodes, want just the chain above the branch", len(trunk))
	}
}

func TestObjectiveValues(t *testing.T) {
	m := eval.Metrics{Skew: 5, CLR: 20}
	if MinSkew.value(m) != 5 || MinCLR.value(m) != 20 || MinBoth.value(m) != 25 {
		t.Error("objective extraction wrong")
	}
}
