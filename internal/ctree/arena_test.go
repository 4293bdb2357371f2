package ctree

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"contango/internal/geom"
	"contango/internal/tech"
)

// buildArenaFixture grows a small buffered arena with every node flavor:
// internal merge points, a buffer, sinks, a snaked edge, a deleted slot.
func buildArenaFixture(t *testing.T) *Arena {
	t.Helper()
	a := NewArena(tech.Default45(), geom.Pt(0, 0), 0.05, BuildHints{})
	m := a.AddChildL(a.Root(), Internal, geom.Pt(100, 40))
	b := a.InsertOnEdge(m, 60, Buffer)
	a.SetBuf(b, tech.Composite{Type: a.Tech.Inverters[1], N: 2})
	s1 := a.AddSink(m, geom.Pt(180, 90), 22, "s1")
	a.AddSink(m, geom.Pt(140, -30), 31, "s2")
	a.WidthIdx[s1] = 1
	a.Snake[s1] = 12.5
	// Leave a dead slot behind so walks must skip table holes.
	tmp := a.AddChildL(m, Internal, geom.Pt(120, 50))
	a.AddSink(tmp, geom.Pt(130, 60), 5, "dead")
	a.DeleteSubtree(tmp)
	if err := a.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return a
}

// sameContent compares two arenas slot by slot (liveness, kinds, geometry,
// edge parameters, buffers, routes, child order), ignoring where the spans
// sit in the shared backing arrays.
func sameContent(t *testing.T, a, b *Arena) {
	t.Helper()
	if a.SourceR != b.SourceR || a.Root() != b.Root() {
		t.Fatalf("source %v/%d != %v/%d", a.SourceR, a.Root(), b.SourceR, b.Root())
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len %d != %d", a.Len(), b.Len())
	}
	for i := int32(0); int(i) < a.Len(); i++ {
		if a.Alive.Test(int(i)) != b.Alive.Test(int(i)) {
			t.Fatalf("slot %d liveness mismatch", i)
		}
		if !a.Alive.Test(int(i)) {
			continue
		}
		if slotChanged(a, b, i) {
			t.Fatalf("slot %d fields differ", i)
		}
		if !slices.Equal(a.Children(i), b.Children(i)) {
			t.Fatalf("slot %d child order differs: %v vs %v", i, a.Children(i), b.Children(i))
		}
	}
}

// DirtyMissing is the content-diff oracle for the arena journal. It returns
// the live slots of after that changed since the snapshot before but are
// not in after.Dirty. A slot has changed when it is new, or when its kind,
// location, parent, edge parameters, buffer or route differ. A slot whose
// child list differs counts as covered when it gained a dirty child (an
// insert, splice or attach journals the gained child, not the parent).
// The external property tests share it.
func DirtyMissing(before, after *Arena) []int {
	var out []int
	for i := 0; i < after.Len(); i++ {
		if !after.Alive.Test(i) || after.Dirty.Test(i) {
			continue
		}
		s := int32(i)
		if i >= before.Len() || slotChanged(before, after, s) {
			out = append(out, i)
			continue
		}
		old, kids := before.Children(s), after.Children(s)
		if slices.Equal(old, kids) {
			continue
		}
		covered := false
		for _, c := range kids {
			if !slices.Contains(old, c) && after.Dirty.Test(int(c)) {
				covered = true
			}
		}
		if !covered {
			out = append(out, i)
		}
	}
	return out
}

// slotChanged reports whether slot i's own fields or route differ between
// the two arenas.
func slotChanged(a, b *Arena, i int32) bool {
	return a.Alive.Test(int(i)) != b.Alive.Test(int(i)) ||
		a.Kind[i] != b.Kind[i] || a.Loc[i] != b.Loc[i] || a.Parent[i] != b.Parent[i] ||
		a.WidthIdx[i] != b.WidthIdx[i] || a.Snake[i] != b.Snake[i] ||
		a.SinkCap[i] != b.SinkCap[i] || a.Name[i] != b.Name[i] ||
		a.BufN[i] != b.BufN[i] || a.BufType[i] != b.BufType[i] ||
		!slices.Equal(a.Route(i), b.Route(i))
}

func TestArenaCompact(t *testing.T) {
	a := buildArenaFixture(t)
	// Churn the spans: inserts relocate child lists and routes to the tail.
	a.InsertOnEdge(3, 20, Internal)
	a.InsertOnEdge(4, 10, Internal)
	before := a.Clone()
	grew := len(a.RoutePts)
	a.Compact()
	if len(a.RoutePts) >= grew {
		t.Fatalf("Compact did not shrink route storage (%d >= %d)", len(a.RoutePts), grew)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("after Compact: %v", err)
	}
	sameContent(t, before, a)
}

func TestArenaDeleteSubtree(t *testing.T) {
	a := buildArenaFixture(t)
	n := a.AddChildL(1, Internal, geom.Pt(150, 80))
	s := a.AddSink(n, geom.Pt(160, 90), 9, "doomed")
	before := a.NumNodes()
	a.Dirty.Reset()
	a.DeleteSubtree(n)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != before-2 || a.Alive.Test(int(n)) || a.Alive.Test(int(s)) {
		t.Fatalf("subtree slots still live (%d nodes, was %d)", a.NumNodes(), before)
	}
	if slices.Contains(a.Children(1), n) || a.Parent[n] != -1 {
		t.Fatal("deleted slot still linked to its parent")
	}
	if !reflect.DeepEqual(a.DirtyIDs(), []int{1}) {
		t.Fatalf("dirty %v, want the parent that lost the child", a.DirtyIDs())
	}
}

func TestBitset(t *testing.T) {
	var b Bitset
	for _, i := range []int{0, 1, 63, 64, 130, 4095} {
		b.Set(i)
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
	if !b.Test(63) || !b.Test(64) || b.Test(62) || b.Test(4096) {
		t.Fatal("Test gives wrong membership")
	}
	b.Unset(63)
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 1, 64, 130, 4095}) {
		t.Fatalf("ForEach = %v", got)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

// A splice over a corridor of zero-length edges — stacked buffer chains
// produce them — must not let Simplify collapse the joined route to a
// single point: every live edge keeps a 2-point route.
func TestRemoveDegree2ZeroLengthEdges(t *testing.T) {
	p := geom.Pt(50, 50)
	a := NewArena(tech.Default45(), geom.Pt(0, 0), 0.05, BuildHints{})
	hub := a.AddChildL(a.Root(), Internal, p)
	mid := a.AddChildL(hub, Internal, p)
	buf := a.AddChildL(mid, Buffer, p)
	a.SetBuf(buf, tech.Composite{Type: a.Tech.Inverters[1], N: 2})
	a.AddSink(buf, geom.Pt(60, 50), 9, "s")
	a.SlideDegree2(mid, 0)
	a.RemoveDegree2(mid)
	if err := a.Validate(); err != nil {
		t.Fatalf("arena after zero-length splice: %v", err)
	}
	if len(a.Route(buf)) < 2 {
		t.Fatalf("spliced child route collapsed: %v", a.Route(buf))
	}
}

// TestSlideDegree2ConservesCorridor: sliding a degree-2 node moves only the
// split point — the corridor's length and its total snake are conserved,
// the snake is divided pro-rata, and both edges are journaled.
func TestSlideDegree2ConservesCorridor(t *testing.T) {
	a := NewArena(tech.Default45(), geom.Pt(0, 0), 0.05, BuildHints{})
	s := a.AddSink(a.Root(), geom.Pt(300, 100), 20, "s")
	b := a.InsertOnEdge(s, 100, Buffer)
	a.SetBuf(b, tech.Composite{Type: a.Tech.Inverters[1], N: 2})
	a.Snake[b], a.Snake[s] = 30, 10
	length := a.Route(b).Length() + a.Route(s).Length()
	for _, d := range []float64{0, 50, 250, 400, 1e9, -5} {
		a.Dirty.Reset()
		a.SlideDegree2(b, d)
		if err := a.Validate(); err != nil {
			t.Fatalf("slide to %v: %v", d, err)
		}
		want := math.Max(0, math.Min(d, length))
		if got := a.Route(b).Length(); math.Abs(got-want) > 1e-9 {
			t.Errorf("slide to %v: upper edge %v, want %v", d, got, want)
		}
		if got := a.Route(b).Length() + a.Route(s).Length(); math.Abs(got-length) > 1e-9 {
			t.Errorf("slide to %v: corridor length %v, want %v", d, got, length)
		}
		if got := a.Snake[b] + a.Snake[s]; math.Abs(got-40) > 1e-9 {
			t.Errorf("slide to %v: total snake %v, want 40", d, got)
		}
		if got := a.Snake[b]; math.Abs(got-40*want/length) > 1e-9 {
			t.Errorf("slide to %v: upper snake %v, want %v", d, got, 40*want/length)
		}
		if !a.Dirty.Test(int(b)) || !a.Dirty.Test(int(s)) {
			t.Errorf("slide to %v: dirty %v misses the rewritten edges", d, a.DirtyIDs())
		}
	}
}

// TestSlideDegree2ZeroLengthCorridor: a corridor of stacked nodes keeps a
// 2-point route on both edges and puts all the snake below.
func TestSlideDegree2ZeroLengthCorridor(t *testing.T) {
	p := geom.Pt(40, 40)
	a := NewArena(tech.Default45(), geom.Pt(0, 0), 0.05, BuildHints{})
	hub := a.AddChildL(a.Root(), Internal, p)
	mid := a.AddChildL(hub, Internal, p)
	s := a.AddSink(mid, p, 9, "s")
	a.Snake[mid], a.Snake[s] = 4, 6
	a.SlideDegree2(mid, 10)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Route(mid)) != 2 || len(a.Route(s)) != 2 {
		t.Fatalf("zero-length corridor routes %v / %v, want 2 points each", a.Route(mid), a.Route(s))
	}
	if a.Loc[mid] != p || a.Snake[mid] != 0 || a.Snake[s] != 10 {
		t.Fatalf("loc %v snake %v/%v, want %v and 0/10", a.Loc[mid], a.Snake[mid], a.Snake[s], p)
	}
}
