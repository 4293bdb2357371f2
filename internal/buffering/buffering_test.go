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

// zst builds a zero-skew tree in the arena and returns its pointer form.
func zst(t *testing.T, tk *tech.Tech, source geom.Point, sinks []dme.Sink) *ctree.Tree {
	t.Helper()
	tr, err := dme.BuildZSTArena(tk, source, sinks, dme.Options{}).ToTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// arenaPass runs pass on tr's arena form and returns the resulting tree
// (node IDs are arena slots, so they carry over) and the pass's count.
func arenaPass(t *testing.T, tr *ctree.Tree, pass func(*ctree.Arena) (int, error)) (*ctree.Tree, int) {
	t.Helper()
	a := ctree.FromTree(tr)
	n, err := pass(a)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	return out, n
}

// insert runs the van Ginneken inserter.
func insert(t *testing.T, tr *ctree.Tree, comp tech.Composite, opt Options) (*ctree.Tree, int) {
	t.Helper()
	return arenaPass(t, tr, func(a *ctree.Arena) (int, error) { return InsertArena(a, comp, opt) })
}

// correctPolarity runs the polarity fixup.
func correctPolarity(t *testing.T, tr *ctree.Tree, inv tech.Composite) (*ctree.Tree, int) {
	t.Helper()
	return arenaPass(t, tr, func(a *ctree.Arena) (int, error) { return CorrectPolarityArena(a, inv, nil), nil })
}

// invertedSinks returns tr's inverted sinks, in pre-order.
func invertedSinks(tr *ctree.Tree) []*ctree.Node {
	var out []*ctree.Node
	for _, slot := range InvertedSinksArena(ctree.FromTree(tr)) {
		out = append(out, tr.Node(int(slot)))
	}
	return out
}

func TestInsertFixesSlewOnLongLine(t *testing.T) {
	tk := tech.Default45()
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	tr.AddSink(tr.Root, geom.Pt(12000, 0), 35, "far")
	res0, _ := (&analysis.Elmore{}).Evaluate(tr, tk.Reference())
	if res0.SlewViol == 0 {
		t.Fatal("test needs an initial slew violation")
	}
	tr, added := insert(t, tr, comp8(tk), Options{})
	if added == 0 {
		t.Fatal("no buffers inserted on a 12 mm line")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res1, _ := (&analysis.Elmore{}).Evaluate(tr, tk.Reference())
	if res1.SlewViol != 0 {
		t.Errorf("slew violations remain: %d (max %v)", res1.SlewViol, res1.MaxSlew)
	}
	// Buffering a long resistive line must also cut the latency (the
	// classic quadratic-to-linear improvement).
	if res1.Rise[tr.Sinks()[0].ID] >= res0.Rise[tr.Sinks()[0].ID] {
		t.Errorf("latency did not improve: %v -> %v",
			res0.Rise[tr.Sinks()[0].ID], res1.Rise[tr.Sinks()[0].ID])
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
	tr, _ := insert(t, zst(t, tk, geom.Pt(0, 4500), sinks), comp, Options{})
	safe := SafeLoad(tk, comp)
	net := analysis.Extract(tr, 0)
	for _, s := range net.Stages {
		if s.Driver < 0 {
			continue
		}
		if got := s.TotalCap() - s.Buf.Cout(); got > safe*1.001 {
			t.Errorf("stage driven by buffer %d carries %v fF > safe %v", s.Driver, got, safe)
		}
	}
}

func TestBuffersAvoidObstacles(t *testing.T) {
	tk := tech.Default45()
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(2000, -500, 9000, 500)}})
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	tr.AddSink(tr.Root, geom.Pt(11000, 0), 35, "far") // wire runs straight over the macro
	tr, added := insert(t, tr, comp8(tk), Options{Obs: obs})
	if added == 0 {
		t.Fatal("expected buffers")
	}
	for _, b := range tr.Buffers() {
		if obs.BlocksPoint(b.Loc) {
			t.Errorf("buffer %d placed inside obstacle at %v", b.ID, b.Loc)
		}
	}
}

func TestMultipleBuffersOneEdgeOrdered(t *testing.T) {
	tk := tech.Default45()
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	s := tr.AddSink(tr.Root, geom.Pt(20000, 0), 35, "far")
	tr, _ = insert(t, tr, comp8(tk), Options{})
	s = tr.Node(s.ID)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Walking from the sink upward must reach the root, visiting each
	// buffer once, with strictly increasing distance-to-sink.
	n := 0
	for cur := s; cur.Parent != nil; cur = cur.Parent {
		n++
		if n > 1000 {
			t.Fatal("cycle")
		}
	}
	if len(tr.Buffers()) < 3 {
		t.Errorf("20 mm line should need several buffers, got %d", len(tr.Buffers()))
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
		tr, _ := insert(t, zst(t, tk, geom.Pt(0, 0), sinks), comp8(tk), Options{})
		if err := tr.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got := len(tr.Sinks()); got != n {
			t.Fatalf("iter %d: sinks %d -> %d", iter, n, got)
		}
		for _, b := range tr.Buffers() {
			if b.Buf == nil {
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
	sweep := func(capLimit float64) (*ctree.Tree, *SweepResult) {
		var res *SweepResult
		tr, _ := arenaPass(t, zst(t, tk, geom.Pt(0, 3000), sinks), func(a *ctree.Arena) (int, error) {
			var err error
			res, err = InsertBestCompositeArena(a, ladder, capLimit, 0.10, Options{})
			return 0, err
		})
		return tr, res
	}
	capLimit := zst(t, tk, geom.Pt(0, 3000), sinks).TotalCap() * 4
	tr, res := sweep(capLimit)
	if res.TotalCap > 0.9*capLimit {
		t.Errorf("cap %v exceeds 90%% budget of %v", res.TotalCap, capLimit)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Buffers()) != res.Added {
		t.Errorf("added=%d but tree has %d buffers", res.Added, len(tr.Buffers()))
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
	tr, _ := insert(t, zst(t, tk, geom.Pt(0, 0), sinks), comp8(tk), Options{})
	inverted := len(invertedSinks(tr))
	buffersBefore := map[int]bool{}
	for _, b := range tr.Buffers() {
		buffersBefore[b.ID] = true
	}
	tr, added := correctPolarity(t, tr, tech.Composite{Type: tk.Inverters[1], N: 2})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(invertedSinks(tr)); got != 0 {
		t.Fatalf("%d sinks still inverted after correction", got)
	}
	if inverted > 0 && added == 0 {
		t.Fatal("inverted sinks existed but nothing was added")
	}
	if added > inverted && inverted > 0 {
		t.Errorf("added %d inverters for %d inverted sinks (worse than naive)", added, inverted)
	}
	// At most one ADDED inverter on any root-to-sink path.
	for _, s := range tr.Sinks() {
		cnt := 0
		for cur := s; cur != nil; cur = cur.Parent {
			if cur.Kind == ctree.Buffer && !buffersBefore[cur.ID] {
				cnt++
			}
		}
		if cnt > 1 {
			t.Errorf("sink %d has %d added inverters on its path", s.ID, cnt)
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
		tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
		nodes := []*ctree.Node{tr.Root}
		nSinks := 0
		for len(nodes) < 10 {
			p := nodes[rng.Intn(len(nodes))]
			if p.Kind == ctree.Sink {
				continue
			}
			loc := geom.Pt(float64(rng.Intn(2000)), float64(rng.Intn(2000)))
			var n *ctree.Node
			switch rng.Intn(3) {
			case 0:
				n = tr.AddSink(p, loc, 30, "")
				nSinks++
			case 1:
				n = tr.AddChild(p, ctree.Internal, loc)
			default:
				n = tr.AddChild(p, ctree.Buffer, loc)
				c := inv
				n.Buf = &c
			}
			nodes = append(nodes, n)
		}
		if nSinks == 0 {
			continue
		}
		want := bruteForceMinInverters(tr)
		fixed, got := correctPolarity(t, tr, inv)
		if got != want {
			t.Fatalf("iter %d: algorithm added %d, brute force needs %d", iter, got, want)
		}
		if len(invertedSinks(fixed)) != 0 {
			t.Fatalf("iter %d: sinks remain inverted", iter)
		}
	}
}

// bruteForceMinInverters finds the minimum number of insert-above-node
// actions that flips exactly the inverted sinks, with at most one action per
// root-to-sink path.
func bruteForceMinInverters(tr *ctree.Tree) int {
	var all []*ctree.Node
	tr.PreOrder(func(n *ctree.Node) { all = append(all, n) })
	sinks := tr.Sinks()
	wrong := map[int]bool{}
	for _, s := range invertedSinks(tr) {
		wrong[s.ID] = true
	}
	inSubtree := func(root, n *ctree.Node) bool {
		for cur := n; cur != nil; cur = cur.Parent {
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
			if flips > 1 || (flips == 1) != wrong[s.ID] {
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
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	a := tr.AddSink(tr.Root, geom.Pt(100, 0), 30, "a")
	b := tr.AddSink(tr.Root, geom.Pt(0, 100), 30, "b")
	inv := tech.Composite{Type: tk.Inverters[1], N: 1}
	bb := tr.InsertOnEdge(a, 50, ctree.Buffer)
	bb.Buf = &inv
	got := invertedSinks(tr)
	if len(got) != 1 || got[0] != a {
		t.Errorf("InvertedSinks=%v want [a]", got)
	}
	_ = b
}

func TestSafeLoadScalesWithStrength(t *testing.T) {
	tk := tech.Default45()
	weak := SafeLoad(tk, tech.Composite{Type: tk.Inverters[1], N: 1})
	strong := SafeLoad(tk, tech.Composite{Type: tk.Inverters[1], N: 8})
	if strong != 8*weak {
		t.Errorf("safe load should scale linearly: %v vs %v", strong, weak)
	}
}
