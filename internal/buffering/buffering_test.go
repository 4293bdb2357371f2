package buffering

import (
	"math"
	"math/rand"
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/tech"
)

func comp8(tk *tech.Tech) tech.Composite {
	return tech.Composite{Type: tk.Inverters[1], N: 8}
}

// zst builds a zero-skew tree.
func zst(t *testing.T, tk *tech.Tech, source geom.Point, sinks []dme.Sink) *ctree.Arena {
	t.Helper()
	return dme.BuildZSTArena(tk, source, sinks, dme.Options{})
}

// insert runs the flow's inserter, BalancedInsertArena, on a.
func insert(t *testing.T, a *ctree.Arena, comp tech.Composite, opt Options) int {
	t.Helper()
	n, err := BalancedInsertArena(a, comp, opt)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// buffers returns a's buffer slots in pre-order.
func buffers(a *ctree.Arena) []int32 {
	var out []int32
	a.PreOrder(func(i int32) {
		if a.Kind[i] == ctree.Buffer {
			out = append(out, i)
		}
	})
	return out
}

// elmore evaluates a at the reference corner.
func elmore(t *testing.T, a *ctree.Arena) *analysis.Result {
	t.Helper()
	res, err := (&analysis.Elmore{}).Evaluate(ctree.NewTree(a), a.Tech.Reference())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInsertFixesSlewOnLongLine(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	far := int(a.AddSink(a.Root(), geom.Pt(12000, 0), 35, "far"))
	res0 := elmore(t, a)
	if res0.SlewViol == 0 {
		t.Fatal("test needs an initial slew violation")
	}
	if added := insert(t, a, comp8(tk), Options{}); added == 0 {
		t.Fatal("no buffers inserted on a 12 mm line")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	res1 := elmore(t, a)
	if res1.SlewViol != 0 {
		t.Errorf("slew violations remain: %d (max %v)", res1.SlewViol, res1.MaxSlew)
	}
	// Buffering a long resistive line must also cut the latency (the
	// classic quadratic-to-linear improvement).
	if res1.Rise[far] >= res0.Rise[far] {
		t.Errorf("latency did not improve: %v -> %v", res0.Rise[far], res1.Rise[far])
	}
}

func TestEveryStageWithinSafeLoad(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(21))
	var sinks []dme.Sink
	for i := 0; i < 80; i++ {
		sinks = append(sinks, dme.Sink{
			Loc: geom.Pt(rng.Float64()*9000, rng.Float64()*9000),
			Cap: 20 + rng.Float64()*30,
		})
	}
	comp := comp8(tk)
	a := zst(t, tk, geom.Pt(0, 4500), sinks)
	insert(t, a, comp, Options{})
	safe := SafeLoad(tk, comp)
	var net analysis.Net
	if err := net.Extract(a, 0); err != nil {
		t.Fatal(err)
	}
	for _, s := range net.Stages {
		if s.Driver < 0 {
			continue
		}
		if got := stageCap(s) - s.Buf.Cout(); got > safe*1.001 {
			t.Errorf("stage driven by buffer %d carries %v fF > safe %v", s.Driver, got, safe)
		}
	}
}

// stageCap returns the sum of grounded capacitance in stage s (fF),
// buffer input pins and sink loads included.
func stageCap(s *analysis.Stage) float64 {
	var c float64
	for _, v := range s.C {
		c += v
	}
	return c
}

func TestBuffersAvoidObstacles(t *testing.T) {
	tk := tech.Default45()
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(2000, -500, 9000, 500)}})
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	a.AddSink(a.Root(), geom.Pt(11000, 0), 35, "far") // wire runs straight over the macro
	if added := insert(t, a, comp8(tk), Options{Obs: obs}); added == 0 {
		t.Fatal("expected buffers")
	}
	for _, b := range buffers(a) {
		if obs.BlocksPoint(a.Loc[b]) {
			t.Errorf("buffer %d placed inside obstacle at %v", b, a.Loc[b])
		}
	}
}

func TestMultipleBuffersOneEdgeOrdered(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	s := a.AddSink(a.Root(), geom.Pt(20000, 0), 35, "far")
	insert(t, a, comp8(tk), Options{})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Walking from the sink upward must reach the root, visiting each
	// buffer once, with strictly increasing distance-to-sink.
	n := 0
	for cur := s; a.Parent[cur] >= 0; cur = a.Parent[cur] {
		n++
		if n > 1000 {
			t.Fatal("cycle")
		}
	}
	if got := len(buffers(a)); got < 3 {
		t.Errorf("20 mm line should need several buffers, got %d", got)
	}
}

func TestInsertPreservesSinksProperty(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 10; iter++ {
		var sinks []dme.Sink
		n := 5 + rng.Intn(60)
		for i := 0; i < n; i++ {
			sinks = append(sinks, dme.Sink{
				Loc: geom.Pt(rng.Float64()*8000, rng.Float64()*8000),
				Cap: 15 + rng.Float64()*40,
			})
		}
		a := zst(t, tk, geom.Pt(0, 0), sinks)
		insert(t, a, comp8(tk), Options{})
		if err := a.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got := len(a.Sinks()); got != n {
			t.Fatalf("iter %d: sinks %d -> %d", iter, n, got)
		}
		for _, b := range buffers(a) {
			if _, ok := a.Buf(b); !ok {
				t.Fatal("buffer without composite")
			}
		}
	}
}

func TestInsertBestCompositePicksStrongestFitting(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(41))
	var sinks []dme.Sink
	for i := 0; i < 60; i++ {
		sinks = append(sinks, dme.Sink{
			Loc: geom.Pt(rng.Float64()*6000, rng.Float64()*6000),
			Cap: 20 + rng.Float64()*30,
		})
	}
	ladder := tk.BatchLadder("Small", 8)
	sweep := func(capLimit float64) (*ctree.Arena, *SweepResult) {
		a := zst(t, tk, geom.Pt(0, 3000), sinks)
		res, err := InsertBestCompositeArena(a, ladder, capLimit, 0.10, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a, res
	}
	capLimit := zst(t, tk, geom.Pt(0, 3000), sinks).TotalCap() * 4
	a, res := sweep(capLimit)
	if res.TotalCap > 0.9*capLimit {
		t.Errorf("cap %v exceeds 90%% budget of %v", res.TotalCap, capLimit)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(buffers(a)); got != res.Added {
		t.Errorf("added=%d but tree has %d buffers", res.Added, got)
	}
	// A tighter budget must pick a weaker (or equal) composite.
	_, res2 := sweep(capLimit / 3)
	if res2.Composite.N > res.Composite.N {
		t.Errorf("tighter budget chose stronger composite: %v vs %v", res2.Composite, res.Composite)
	}
}

func TestPolarityCorrection(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(51))
	var sinks []dme.Sink
	for i := 0; i < 70; i++ {
		sinks = append(sinks, dme.Sink{
			Loc: geom.Pt(rng.Float64()*9000, rng.Float64()*9000),
			Cap: 20 + rng.Float64()*30,
		})
	}
	a := zst(t, tk, geom.Pt(0, 0), sinks)
	insert(t, a, comp8(tk), Options{})
	inverted := len(InvertedSinksArena(a))
	buffersBefore := map[int32]bool{}
	for _, b := range buffers(a) {
		buffersBefore[b] = true
	}
	added := CorrectPolarityArena(a, tech.Composite{Type: tk.Inverters[1], N: 2}, nil)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(InvertedSinksArena(a)); got != 0 {
		t.Fatalf("%d sinks still inverted after correction", got)
	}
	if inverted > 0 && added == 0 {
		t.Fatal("inverted sinks existed but nothing was added")
	}
	if added > inverted && inverted > 0 {
		t.Errorf("added %d inverters for %d inverted sinks (worse than naive)", added, inverted)
	}
	// At most one ADDED inverter on any root-to-sink path.
	for _, s := range a.Sinks() {
		cnt := 0
		for cur := s; cur >= 0; cur = a.Parent[cur] {
			if a.Kind[cur] == ctree.Buffer && !buffersBefore[cur] {
				cnt++
			}
		}
		if cnt > 1 {
			t.Errorf("sink %d has %d added inverters on its path", s, cnt)
		}
	}
}

// TestPolarityMinimalityVsBruteForce checks Proposition 2's optimality claim
// on random small trees against exhaustive search over antichains.
func TestPolarityMinimalityVsBruteForce(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(61))
	inv := tech.Composite{Type: tk.Inverters[1], N: 1}
	for iter := 0; iter < 60; iter++ {
		// Random tree with random buffers (possibly creating odd parities).
		a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
		nodes := []int32{a.Root()}
		nSinks := 0
		for len(nodes) < 10 {
			p := nodes[rng.Intn(len(nodes))]
			if a.Kind[p] == ctree.Sink {
				continue
			}
			loc := geom.Pt(float64(rng.Intn(2000)), float64(rng.Intn(2000)))
			var n int32
			switch rng.Intn(3) {
			case 0:
				n = a.AddSink(p, loc, 30, "")
				nSinks++
			case 1:
				n = a.AddChildL(p, ctree.Internal, loc)
			default:
				n = a.AddChildL(p, ctree.Buffer, loc)
				a.SetBuf(n, inv)
			}
			nodes = append(nodes, n)
		}
		if nSinks == 0 {
			continue
		}
		want := bruteForceMinInverters(a)
		got := CorrectPolarityArena(a, inv, nil)
		if got != want {
			t.Fatalf("iter %d: algorithm added %d, brute force needs %d", iter, got, want)
		}
		if len(InvertedSinksArena(a)) != 0 {
			t.Fatalf("iter %d: sinks remain inverted", iter)
		}
	}
}

// bruteForceMinInverters finds the minimum number of insert-above-node
// actions that flips exactly the inverted sinks, with at most one action per
// root-to-sink path.
func bruteForceMinInverters(a *ctree.Arena) int {
	var all []int32
	a.PreOrder(func(n int32) { all = append(all, n) })
	sinks := a.Sinks()
	wrong := map[int32]bool{}
	for _, s := range InvertedSinksArena(a) {
		wrong[s] = true
	}
	inSubtree := func(root, n int32) bool {
		for cur := n; cur >= 0; cur = a.Parent[cur] {
			if cur == root {
				return true
			}
		}
		return false
	}
	best := math.MaxInt32
	m := len(all)
	for mask := 0; mask < 1<<m; mask++ {
		cnt := popcount(mask)
		if cnt >= best {
			continue
		}
		ok := true
		for _, s := range sinks {
			flips := 0
			for i := 0; i < m; i++ {
				if mask&(1<<i) != 0 && inSubtree(all[i], s) {
					flips++
				}
			}
			if flips > 1 || (flips == 1) != wrong[s] {
				ok = false
				break
			}
		}
		if ok {
			best = cnt
		}
	}
	return best
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestInvertedSinksCounts(t *testing.T) {
	tk := tech.Default45()
	tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	a := tr.AddSink(tr.Root(), geom.Pt(100, 0), 30, "a")
	tr.AddSink(tr.Root(), geom.Pt(0, 100), 30, "b")
	tr.SetBuf(tr.InsertOnEdge(a, 50, ctree.Buffer), tech.Composite{Type: tk.Inverters[1], N: 1})
	got := InvertedSinksArena(tr)
	if len(got) != 1 || got[0] != a {
		t.Errorf("InvertedSinks=%v want [a]", got)
	}
}

func TestSafeLoadScalesWithStrength(t *testing.T) {
	tk := tech.Default45()
	weak := SafeLoad(tk, tech.Composite{Type: tk.Inverters[1], N: 1})
	strong := SafeLoad(tk, tech.Composite{Type: tk.Inverters[1], N: 8})
	if strong != 8*weak {
		t.Errorf("safe load should scale linearly: %v vs %v", strong, weak)
	}
}
