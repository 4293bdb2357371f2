package ctree

import (
	"math"
	"math/rand"
	"testing"

	"contango/internal/geom"
	"contango/internal/tech"
)

func newTestArena() *Arena {
	return NewArena(tech.Default45(), geom.Pt(0, 0), 0.05, BuildHints{})
}

func TestAddChildAndValidate(t *testing.T) {
	a := newTestArena()
	m := a.AddChildL(a.Root(), Internal, geom.Pt(100, 50))
	a.AddSink(m, geom.Pt(200, 50), 35, "s1")
	a.AddSink(m, geom.Pt(100, 200), 35, "s2")
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Sinks()); got != 2 {
		t.Errorf("sinks=%d want 2", got)
	}
	if a.NumNodes() != 4 {
		t.Errorf("nodes=%d want 4", a.NumNodes())
	}
	// L-shaped route to m: 100 + 50.
	if got := a.EdgeLen(m); got != 150 {
		t.Errorf("edge len=%v want 150", got)
	}
}

func TestInsertOnEdge(t *testing.T) {
	a := newTestArena()
	s := a.AddSink(a.Root(), geom.Pt(100, 100), 35, "s")
	before := a.EdgeLen(s)
	b := a.InsertOnEdge(s, 60, Buffer)
	a.SetBuf(b, tech.Composite{Type: a.Tech.Inverters[1], N: 8})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.EdgeLen(b)-60) > 1e-9 {
		t.Errorf("upper edge=%v want 60", a.EdgeLen(b))
	}
	if math.Abs(a.EdgeLen(b)+a.EdgeLen(s)-before) > 1e-9 {
		t.Errorf("length not conserved: %v + %v != %v", a.EdgeLen(b), a.EdgeLen(s), before)
	}
	if a.Parent[s] != b || a.Parent[b] != a.Root() {
		t.Error("parent slots wrong after insert")
	}
}

func TestRemoveDegree2RoundTrip(t *testing.T) {
	a := newTestArena()
	s := a.AddSink(a.Root(), geom.Pt(100, 100), 35, "s")
	totalBefore := a.Wirelength()
	mid := a.InsertOnEdge(s, 80, Internal)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	a.RemoveDegree2(mid)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Wirelength()-totalBefore) > 1e-9 {
		t.Errorf("wirelength changed: %v vs %v", a.Wirelength(), totalBefore)
	}
	if a.Parent[s] != a.Root() {
		t.Error("splice did not restore parent")
	}
	if a.NumNodes() != 2 {
		t.Errorf("nodes=%d want 2", a.NumNodes())
	}
}

func TestRemoveDegree2KeepsSnake(t *testing.T) {
	a := newTestArena()
	s := a.AddSink(a.Root(), geom.Pt(100, 0), 35, "s")
	mid := a.InsertOnEdge(s, 50, Internal)
	a.Snake[mid] = 7
	a.Snake[s] = 3
	a.RemoveDegree2(mid)
	if a.Snake[s] != 10 {
		t.Errorf("snake=%v want 10", a.Snake[s])
	}
}

func TestCapAccounting(t *testing.T) {
	a := newTestArena()
	s := a.AddSink(a.Root(), geom.Pt(1000, 0), 42, "s")
	w := a.Tech.Wires[a.WidthIdx[s]]
	if got, want := a.WireCap(), 1000*w.CPerUm; math.Abs(got-want) > 1e-9 {
		t.Errorf("WireCap=%v want %v", got, want)
	}
	if got, want := a.LoadCap(s), 1000*w.CPerUm+42; math.Abs(got-want) > 1e-9 {
		t.Errorf("sink LoadCap=%v want %v", got, want)
	}
	b := a.InsertOnEdge(s, 500, Buffer)
	comp := tech.Composite{Type: a.Tech.Inverters[1], N: 8}
	a.SetBuf(b, comp)
	if got, want := a.BufferCap(), comp.CapCost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("BufferCap=%v want %v", got, want)
	}
	if got, want := a.LoadCap(b), 500*w.CPerUm+comp.Cin(); math.Abs(got-want) > 1e-9 {
		t.Errorf("buffer input shields its subtree: LoadCap=%v want %v", got, want)
	}
	if math.Abs(a.TotalCap()-(a.WireCap()+a.BufferCap())) > 1e-9 {
		t.Error("TotalCap mismatch")
	}
	// Snaking adds wire cap.
	before := a.WireCap()
	a.Snake[s] = 100
	if got, want := a.WireCap(), before+100*w.CPerUm; math.Abs(got-want) > 1e-9 {
		t.Errorf("snaked WireCap=%v want %v", got, want)
	}
}

// TestInversionParity: the number of inverting buffers on a sink's path,
// read off the handle's views by walking Parent links (what an outside
// checker does), tracks the buffers inserted above the sink.
func TestInversionParity(t *testing.T) {
	a := newTestArena()
	s := a.AddSink(a.Root(), geom.Pt(100, 0), 35, "s")
	tr := NewTree(a)
	parity := func() int {
		p := -1
		tr.PreOrder(func(n *Node) {
			if n.ID != int(s) {
				return
			}
			p = 0
			for cur := n; cur != nil; cur = cur.Parent {
				if cur.Kind == Buffer {
					p ^= 1
				}
			}
		})
		return p
	}
	if parity() != 0 {
		t.Error("no buffers: parity should be 0")
	}
	comp := tech.Composite{Type: a.Tech.Inverters[1], N: 8}
	tr.Arena().SetBuf(tr.Arena().InsertOnEdge(s, 30, Buffer), comp)
	if parity() != 1 {
		t.Error("one inverter: parity should be 1")
	}
	tr.Arena().SetBuf(tr.Arena().InsertOnEdge(s, 30, Buffer), comp)
	if parity() != 0 {
		t.Error("two inverters: parity should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := newTestArena()
	m := a.AddChildL(a.Root(), Internal, geom.Pt(50, 50))
	s := a.AddSink(m, geom.Pt(100, 100), 35, "s")
	b := a.InsertOnEdge(s, 20, Buffer)
	a.SetBuf(b, tech.Composite{Type: a.Tech.Inverters[1], N: 16})
	tr := NewTree(a)

	cp := tr.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	ca := cp.Arena()
	if ca == a {
		t.Fatal("clone shares the arena")
	}
	if ca.Wirelength() != a.Wirelength() || ca.TotalCap() != a.TotalCap() {
		t.Error("clone differs in metrics")
	}
	// Mutating the clone must not affect the original.
	ca.Snake[s] = 500
	ca.BufN[b] = 32
	ca.AddSink(ca.Root(), geom.Pt(7, 9), 12, "extra")
	if a.Snake[s] != 0 {
		t.Error("clone mutation leaked into original snake")
	}
	if a.BufN[b] != 16 {
		t.Error("clone mutation leaked into original buffer")
	}
	if a.NumNodes() != 4 {
		t.Errorf("clone growth leaked into original: %d nodes", a.NumNodes())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := newTestArena()
	s := a.AddSink(a.Root(), geom.Pt(100, 0), 35, "s")

	// Broken route endpoint.
	save := append(geom.Polyline(nil), a.Route(s)...)
	a.ReplaceRoute(s, geom.Polyline{geom.Pt(5, 5), geom.Pt(100, 0)})
	if a.Validate() == nil {
		t.Error("expected route-start violation")
	}
	a.ReplaceRoute(s, save)

	// Sink with a child.
	bad := a.AddChildL(s, Internal, geom.Pt(200, 0))
	if a.Validate() == nil {
		t.Error("expected sink-with-children violation")
	}
	a.DeleteSubtree(bad)

	// Buffer without composite.
	b := a.InsertOnEdge(s, 50, Buffer)
	if a.Validate() == nil {
		t.Error("expected buffer-missing-composite violation")
	}
	a.SetBuf(b, tech.Composite{Type: a.Tech.Inverters[0], N: 1})
	if err := a.Validate(); err != nil {
		t.Fatalf("tree should be valid again: %v", err)
	}
}

func TestRandomTreeInvariants(t *testing.T) {
	// Property: random sequences of AddChildL/InsertOnEdge/RemoveDegree2
	// keep the arena valid.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		a := newTestArena()
		var inserted []int32
		for op := 0; op < 60; op++ {
			switch rng.Intn(3) {
			case 0:
				parents := []int32{a.Root()}
				a.PreOrder(func(n int32) {
					if a.Kind[n] == Internal {
						parents = append(parents, n)
					}
				})
				p := parents[rng.Intn(len(parents))]
				loc := geom.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
				if rng.Intn(2) == 0 {
					a.AddSink(p, loc, 35, "")
				} else {
					a.AddChildL(p, Internal, loc)
				}
			case 1:
				var edges []int32
				a.PreOrder(func(n int32) {
					if a.Parent[n] >= 0 && a.EdgeLen(n) > 2 {
						edges = append(edges, n)
					}
				})
				if len(edges) > 0 {
					e := edges[rng.Intn(len(edges))]
					d := rng.Float64() * a.Route(e).Length()
					inserted = append(inserted, a.InsertOnEdge(e, d, Internal))
				}
			case 2:
				if len(inserted) > 0 {
					i := rng.Intn(len(inserted))
					n := inserted[i]
					if a.Alive.Test(int(n)) && a.ChildLen[n] == 1 {
						a.RemoveDegree2(n)
						inserted = append(inserted[:i], inserted[i+1:]...)
					}
				}
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestPrePostOrder(t *testing.T) {
	a := newTestArena()
	m := a.AddChildL(a.Root(), Internal, geom.Pt(10, 0))
	a.AddSink(m, geom.Pt(20, 0), 1, "x")
	a.AddSink(m, geom.Pt(10, 10), 1, "y")

	var pre, post []int32
	a.PreOrder(func(n int32) { pre = append(pre, n) })
	a.PostOrder(func(n int32) { post = append(post, n) })
	if pre[0] != a.Root() {
		t.Error("pre-order must start at root")
	}
	if post[len(post)-1] != a.Root() {
		t.Error("post-order must end at root")
	}
	if len(pre) != 4 || len(post) != 4 {
		t.Errorf("visit counts %d/%d", len(pre), len(post))
	}
}

// TestPathToRoot: a view's Parent links run slot by slot up to the root's
// view, which has none.
func TestPathToRoot(t *testing.T) {
	a := newTestArena()
	m := a.AddChildL(a.Root(), Internal, geom.Pt(10, 0))
	s := a.AddSink(m, geom.Pt(20, 0), 1, "x")
	var path []int
	NewTree(a).PreOrder(func(n *Node) {
		if n.ID != int(s) {
			return
		}
		for cur := n; cur != nil; cur = cur.Parent {
			path = append(path, cur.ID)
		}
	})
	if len(path) != 3 || path[0] != int(s) || path[1] != int(m) || path[2] != int(a.Root()) {
		t.Errorf("path wrong: %v", path)
	}
}

// TestTreeViewsWriteBack: writes to PreOrder views reach the arena at the
// next access through the handle, repeated walks share views, and
// DeleteSubtree takes a view.
func TestTreeViewsWriteBack(t *testing.T) {
	a := newTestArena()
	m := a.AddChildL(a.Root(), Internal, geom.Pt(100, 0))
	s1 := a.AddSink(m, geom.Pt(200, 0), 20, "s1")
	s2 := a.AddSink(m, geom.Pt(100, 100), 30, "s2")
	b := a.InsertOnEdge(s1, 50, Buffer)
	a.SetBuf(b, tech.Composite{Type: a.Tech.Inverters[1], N: 4})
	tr := NewTree(a)

	views := map[int]*Node{}
	tr.PreOrder(func(n *Node) { views[n.ID] = n })
	tr.PreOrder(func(n *Node) {
		if views[n.ID] != n {
			t.Fatalf("slot %d: a second walk handed out a new view", n.ID)
		}
	})
	if views[int(b)].Buf == nil || views[int(b)].Buf.N != 4 || views[int(s1)].Parent != views[int(b)] {
		t.Fatal("views do not mirror the arena")
	}
	views[int(b)].Kind, views[int(b)].Buf = Internal, nil
	views[int(s2)].SinkCap, views[int(s2)].Name = 31, "renamed"
	if err := tr.Validate(); err != nil {
		t.Fatalf("internal node without composite: %v", err)
	}
	if a.Kind[b] != Internal || a.BufN[b] != 0 || a.SinkCap[s2] != 31 || a.Name[s2] != "renamed" {
		t.Fatal("view writes did not reach the arena")
	}

	var sink *Node
	tr.PreOrder(func(n *Node) {
		if n.ID == int(s2) {
			sink = n
		}
	})
	tr.DeleteSubtree(sink)
	if a.Alive.Test(int(s2)) || len(a.Sinks()) != 1 {
		t.Fatal("DeleteSubtree(view) did not drop the sink")
	}

	var buf *Node
	tr.PreOrder(func(n *Node) {
		if n.ID == int(b) {
			buf = n
		}
	})
	buf.Kind = Buffer
	if err := tr.Validate(); err == nil {
		t.Fatal("a buffer view without a composite passed Validate")
	}
}
