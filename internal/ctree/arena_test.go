package ctree

import (
	"reflect"
	"slices"
	"testing"

	"contango/internal/geom"
	"contango/internal/tech"
)

// buildArenaFixture grows a small buffered tree with every node flavor:
// internal merge points, a buffer, sinks, a snaked edge, a deleted node.
func buildArenaFixture(t *testing.T) *Tree {
	t.Helper()
	tr := New(tech.Default45(), geom.Pt(0, 0), 0.05)
	m := tr.AddChild(tr.Root, Internal, geom.Pt(100, 40))
	b := tr.InsertOnEdge(m, 60, Buffer)
	b.Buf = &tech.Composite{Type: tr.Tech.Inverters[1], N: 2}
	s1 := tr.AddSink(m, geom.Pt(180, 90), 22, "s1")
	tr.AddSink(m, geom.Pt(140, -30), 31, "s2")
	s1.WidthIdx = 1
	s1.Snake = 12.5
	// Leave a dead ID behind so converters must handle table holes.
	tmp := tr.AddChild(m, Internal, geom.Pt(120, 50))
	tr.AddSink(tmp, geom.Pt(130, 60), 5, "dead")
	tr.DeleteSubtree(tmp)
	if err := tr.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return tr
}

// treesEqual compares two trees node by node (IDs, kinds, geometry, edge
// parameters, buffers, child order).
func treesEqual(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.SourceR != b.SourceR {
		t.Fatalf("SourceR %v != %v", a.SourceR, b.SourceR)
	}
	if a.MaxID() != b.MaxID() {
		t.Fatalf("MaxID %d != %d", a.MaxID(), b.MaxID())
	}
	for id := 0; id < a.MaxID(); id++ {
		na, nb := a.Node(id), b.Node(id)
		if (na == nil) != (nb == nil) {
			t.Fatalf("node %d liveness mismatch", id)
		}
		if na == nil {
			continue
		}
		if na.Kind != nb.Kind || na.Loc != nb.Loc || na.WidthIdx != nb.WidthIdx ||
			na.Snake != nb.Snake || na.SinkCap != nb.SinkCap || na.Name != nb.Name {
			t.Fatalf("node %d scalar fields differ: %+v vs %+v", id, na, nb)
		}
		if !reflect.DeepEqual(na.Route, nb.Route) {
			t.Fatalf("node %d route differs: %v vs %v", id, na.Route, nb.Route)
		}
		if (na.Buf == nil) != (nb.Buf == nil) {
			t.Fatalf("node %d buffer presence differs", id)
		}
		if na.Buf != nil && *na.Buf != *nb.Buf {
			t.Fatalf("node %d buffer differs: %+v vs %+v", id, *na.Buf, *nb.Buf)
		}
		pa, pb := -1, -1
		if na.Parent != nil {
			pa = na.Parent.ID
		}
		if nb.Parent != nil {
			pb = nb.Parent.ID
		}
		if pa != pb {
			t.Fatalf("node %d parent %d != %d", id, pa, pb)
		}
		if len(na.Children) != len(nb.Children) {
			t.Fatalf("node %d child count differs", id)
		}
		for i := range na.Children {
			if na.Children[i].ID != nb.Children[i].ID {
				t.Fatalf("node %d child order differs", id)
			}
		}
	}
}

func TestArenaRoundTrip(t *testing.T) {
	tr := buildArenaFixture(t)
	a := FromTree(tr)
	if a.NumNodes() != tr.NumNodes() {
		t.Fatalf("NumNodes %d != %d", a.NumNodes(), tr.NumNodes())
	}
	back, err := a.ToTree()
	if err != nil {
		t.Fatalf("ToTree: %v", err)
	}
	treesEqual(t, tr, back)
}

func TestArenaMutationsMirrorTree(t *testing.T) {
	tr := buildArenaFixture(t)
	a := FromTree(tr)
	before := a.Clone()

	// Mirror a mixed mutation sequence on both representations: insert a
	// node, then splice it back out.
	s1 := tr.Node(3)
	mid := tr.InsertOnEdge(s1, 35, Internal)
	amid := a.InsertOnEdge(3, 35, Internal)
	if int32(mid.ID) != amid {
		t.Fatalf("inserted slot %d != node ID %d", amid, mid.ID)
	}
	tr.RemoveDegree2(mid)
	a.RemoveDegree2(amid)
	// Grow a fresh sink and move it under another parent.
	ns := tr.AddSink(tr.Node(1), geom.Pt(90, 70), 14, "moved")
	ans := a.AddSink(1, geom.Pt(90, 70), 14, "moved")
	if int32(ns.ID) != ans {
		t.Fatalf("new sink slot %d != node ID %d", ans, ns.ID)
	}
	tr.Detach(ns)
	a.Detach(ans)
	tr.Attach(ns, tr.Node(2), nil)
	a.Attach(ans, 2, nil)

	back, err := a.ToTree()
	if err != nil {
		t.Fatalf("ToTree after mutations: %v", err)
	}
	treesEqual(t, tr, back)

	if missing := DirtyMissing(before, a); missing != nil {
		t.Fatalf("changed slots missing from the dirty bitmap: %v (dirty %v)", missing, a.DirtyIDs())
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
	tr := buildArenaFixture(t)
	a := FromTree(tr)
	// Churn the spans: inserts relocate child lists and routes to the tail.
	a.InsertOnEdge(3, 20, Internal)
	a.InsertOnEdge(4, 10, Internal)
	before, err := a.ToTree()
	if err != nil {
		t.Fatalf("ToTree: %v", err)
	}
	grew := len(a.RoutePts)
	a.Compact()
	if len(a.RoutePts) >= grew {
		t.Fatalf("Compact did not shrink route storage (%d >= %d)", len(a.RoutePts), grew)
	}
	after, err := a.ToTree()
	if err != nil {
		t.Fatalf("ToTree after Compact: %v", err)
	}
	treesEqual(t, before, after)
}

func TestArenaDeleteSubtree(t *testing.T) {
	tr := buildArenaFixture(t)
	a := FromTree(tr)
	n := tr.AddChild(tr.Node(1), Internal, geom.Pt(150, 80))
	tr.AddSink(n, geom.Pt(160, 90), 9, "doomed")
	an := a.AddChildL(1, Internal, geom.Pt(150, 80))
	a.AddSink(an, geom.Pt(160, 90), 9, "doomed")
	tr.DeleteSubtree(n)
	a.DeleteSubtree(an)
	back, err := a.ToTree()
	if err != nil {
		t.Fatalf("ToTree: %v", err)
	}
	treesEqual(t, tr, back)
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
	tr := New(tech.Default45(), geom.Pt(0, 0), 0.05)
	hub := tr.AddChild(tr.Root, Internal, p)
	mid := tr.AddChild(hub, Internal, p)
	buf := tr.AddChild(mid, Buffer, p)
	buf.Buf = &tech.Composite{Type: tr.Tech.Inverters[1], N: 2}
	tr.AddSink(buf, geom.Pt(60, 50), 9, "s")
	tr.SlideDegree2(mid, 0)
	a := FromTree(tr)

	tr.RemoveDegree2(mid)
	a.RemoveDegree2(int32(mid.ID))
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree after zero-length splice: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("arena after zero-length splice: %v", err)
	}
	if len(buf.Route) < 2 {
		t.Fatalf("spliced child route collapsed: %v", buf.Route)
	}
	back, err := a.ToTree()
	if err != nil {
		t.Fatalf("ToTree: %v", err)
	}
	treesEqual(t, tr, back)
}
