package ctree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"contango/internal/geom"
	"contango/internal/tech"
)

// buildPair grows a pointer tree and an arena through mirrored construction
// calls and returns both.
func buildPair(t *testing.T, rng *rand.Rand) (*Tree, *Arena) {
	t.Helper()
	tk := tech.Default45()
	tr := New(tk, geom.Pt(0, 0), 0.1)
	a := NewArena(tk, geom.Pt(0, 0), 0.1, HintsForSinks(16))
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}

	parents := []int{0}
	for i := 0; i < 40; i++ {
		pid := parents[rng.Intn(len(parents))]
		loc := geom.Pt(rng.Float64()*4000, rng.Float64()*3000)
		switch rng.Intn(3) {
		case 0:
			n := tr.AddChild(tr.Node(pid), Internal, loc)
			s := a.AddChildL(int32(pid), Internal, loc)
			if int32(n.ID) != s {
				t.Fatalf("slot %d != id %d", s, n.ID)
			}
			parents = append(parents, n.ID)
		case 1:
			n := tr.AddChild(tr.Node(pid), Buffer, loc)
			c := comp
			n.Buf = &c
			s := a.AddChildL(int32(pid), Buffer, loc)
			a.SetBuf(s, comp)
			parents = append(parents, n.ID)
		default:
			cp := 10 + rng.Float64()*30
			n := tr.AddSink(tr.Node(pid), loc, cp, "s")
			a.AddSink(int32(pid), loc, cp, "s")
			_ = n
		}
	}
	return tr, a
}

func TestBulkConstructionMatchesPointerPath(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, a := buildPair(t, rng)
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: arena invalid: %v", seed, err)
		}
		back, err := a.ToTree()
		if err != nil {
			t.Fatalf("seed %d: ToTree: %v", seed, err)
		}
		treesEqual(t, tr, back)

		// Aggregate accessors agree bit for bit with the pointer tree's.
		if got, want := a.Wirelength(), tr.Wirelength(); got != want {
			t.Fatalf("seed %d: wirelength %v != %v", seed, got, want)
		}
		if got, want := a.WireCap(), tr.WireCap(); got != want {
			t.Fatalf("seed %d: wirecap %v != %v", seed, got, want)
		}
		if got, want := a.BufferCap(), tr.BufferCap(); got != want {
			t.Fatalf("seed %d: buffercap %v != %v", seed, got, want)
		}
		if got, want := a.TotalCap(), tr.TotalCap(); got != want {
			t.Fatalf("seed %d: totalcap %v != %v", seed, got, want)
		}
		for id := 0; id < tr.MaxID(); id++ {
			n := tr.Node(id)
			if n == nil || n.Parent == nil {
				continue
			}
			if got, want := a.LoadCap(int32(id)), tr.LoadCap(n); got != want {
				t.Fatalf("seed %d: loadcap(%d) %v != %v", seed, id, got, want)
			}
			if got, want := a.EdgeRes(int32(id)), tr.EdgeRes(n); got != want {
				t.Fatalf("seed %d: edgeres(%d) %v != %v", seed, id, got, want)
			}
		}

		// Pre/post-order visit sequences match the pointer traversals.
		var wantPre, gotPre []int
		tr.PreOrder(func(n *Node) { wantPre = append(wantPre, n.ID) })
		a.PreOrder(func(i int32) { gotPre = append(gotPre, int(i)) })
		if !reflect.DeepEqual(wantPre, gotPre) {
			t.Fatalf("seed %d: preorder differs", seed)
		}
		var wantPost, gotPost []int
		tr.PostOrder(func(n *Node) { wantPost = append(wantPost, n.ID) })
		a.PostOrder(func(i int32) { gotPost = append(gotPost, int(i)) })
		if !reflect.DeepEqual(wantPost, gotPost) {
			t.Fatalf("seed %d: postorder differs", seed)
		}
	}
}

func TestReserveAvoidsReallocation(t *testing.T) {
	tk := tech.Default45()
	h := HintsForSinks(64)
	a := NewArena(tk, geom.Pt(0, 0), 0.1, h)
	kindPtr := &a.Kind[:1][0]
	ptsCap, idxCap := cap(a.RoutePts), cap(a.ChildIdx)
	parents := []int32{a.Root()}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		p := parents[rng.Intn(len(parents))]
		s := a.AddChildL(p, Internal, geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
		parents = append(parents, s)
		a.AddSink(s, geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 20, "")
	}
	if &a.Kind[:1][0] != kindPtr {
		t.Fatal("per-slot arrays reallocated despite Reserve")
	}
	if cap(a.RoutePts) != ptsCap {
		t.Fatalf("RoutePts reallocated: cap %d -> %d", ptsCap, cap(a.RoutePts))
	}
	if cap(a.ChildIdx) != idxCap {
		t.Fatalf("ChildIdx reallocated: cap %d -> %d", idxCap, cap(a.ChildIdx))
	}
}

func TestArenaCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, a := buildPair(t, rng)
	cp := a.Clone()
	before, err := a.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the clone heavily; the original must not move.
	sinks := cp.Sinks()
	cp.AddSink(cp.Root(), geom.Pt(7, 9), 12, "extra")
	cp.InsertOnEdge(sinks[0], 1, Internal)
	cp.DeleteSubtree(sinks[len(sinks)-1])
	after, err := a.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	treesEqual(t, before, after)
	if reflect.DeepEqual(a.DirtyIDs(), cp.DirtyIDs()) {
		t.Fatal("clone mutations journaled on the original")
	}
}

func TestArenaValidateCatchesDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, a := buildPair(t, rng)
	if err := a.Validate(); err != nil {
		t.Fatalf("fresh arena invalid: %v", err)
	}
	// Dangle a child reference.
	bad := a.Clone()
	for i := range bad.ChildIdx {
		if bad.ChildIdx[i] != bad.Root() {
			bad.ChildIdx[i] = bad.Root() // root can't be a child: wrong parent
			break
		}
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("corrupted child span passed validation")
	}
	// Kill a reachable slot.
	bad2 := a.Clone()
	bad2.Alive.Unset(int(bad2.Children(bad2.Root())[0]))
	if err := bad2.Validate(); err == nil || !strings.Contains(err.Error(), "dead slot") {
		t.Fatalf("dead-but-reachable slot not caught: %v", err)
	}
	// A negative inverter count and an unknown kind.
	bad3 := a.Clone()
	for i := range bad3.Kind {
		if bad3.Kind[i] == Buffer && bad3.Alive.Test(i) {
			bad3.BufN[i] = -1
			break
		}
	}
	if err := bad3.Validate(); err == nil || !strings.Contains(err.Error(), "missing composite") {
		t.Fatalf("buffer without inverters not caught: %v", err)
	}
	bad4 := a.Clone()
	bad4.Kind[bad4.Children(bad4.Root())[0]] = Sink + 6
	if err := bad4.Validate(); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unknown kind not caught: %v", err)
	}
}

func TestAddChildLMatchesAddChild(t *testing.T) {
	tk := tech.Default45()
	for _, pts := range [][2]geom.Point{
		{geom.Pt(0, 0), geom.Pt(100, 50)},  // true L
		{geom.Pt(10, 10), geom.Pt(10, 80)}, // vertical
		{geom.Pt(10, 10), geom.Pt(90, 10)}, // horizontal
		{geom.Pt(5, 5), geom.Pt(5, 5)},     // degenerate
	} {
		a := NewArena(tk, pts[0], 0.1, BuildHints{})
		tr := New(tk, pts[0], 0.1)
		sa := a.AddChildL(a.Root(), Internal, pts[1])
		n := tr.AddChild(tr.Root, Internal, pts[1])
		if !reflect.DeepEqual(a.Route(sa), n.Route) {
			t.Fatalf("%v->%v: AddChildL route %v != Tree.AddChild route %v",
				pts[0], pts[1], a.Route(sa), n.Route)
		}
	}
}
