package ctree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"contango/internal/geom"
	"contango/internal/tech"
)

// refNode is one node of the test's reference model: the plain
// parent/children/route record a bulk construction is expected to leave.
type refNode struct {
	kind   Kind
	parent int
	kids   []int
	route  geom.Polyline
	buf    tech.Composite
	cap    float64
}

// buildArena grows an arena through random construction calls and records
// the same construction in the reference model.
func buildArena(t *testing.T, rng *rand.Rand) (*Arena, []refNode) {
	t.Helper()
	tk := tech.Default45()
	a := NewArena(tk, geom.Pt(0, 0), 0.1, HintsForSinks(16))
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	ref := []refNode{{kind: Source, parent: -1}}
	add := func(pid int, kind Kind, loc geom.Point, s int32) {
		if int(s) != len(ref) {
			t.Fatalf("slot %d, want the next index %d", s, len(ref))
		}
		ref[pid].kids = append(ref[pid].kids, int(s))
		ref = append(ref, refNode{kind: kind, parent: pid, route: geom.LShape(a.Loc[pid], loc)[0]})
	}
	parents := []int{0}
	for i := 0; i < 40; i++ {
		pid := parents[rng.Intn(len(parents))]
		loc := geom.Pt(rng.Float64()*4000, rng.Float64()*3000)
		switch rng.Intn(3) {
		case 0:
			s := a.AddChildL(int32(pid), Internal, loc)
			add(pid, Internal, loc, s)
			parents = append(parents, int(s))
		case 1:
			s := a.AddChildL(int32(pid), Buffer, loc)
			a.SetBuf(s, comp)
			add(pid, Buffer, loc, s)
			ref[s].buf = comp
			parents = append(parents, int(s))
		default:
			cp := 10 + rng.Float64()*30
			s := a.AddSink(int32(pid), loc, cp, "s")
			add(pid, Sink, loc, s)
			ref[s].cap = cp
		}
	}
	return a, ref
}

// TestBulkConstructionMatchesPointerPath: bulk construction leaves exactly
// the reference model's slots, L-shaped routes and child order, and the
// aggregate accessors equal sums taken over the model in pre-order.
func TestBulkConstructionMatchesPointerPath(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, ref := buildArena(t, rng)
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: arena invalid: %v", seed, err)
		}
		if a.Len() != len(ref) || a.NumNodes() != len(ref) {
			t.Fatalf("seed %d: %d slots, %d live, want %d", seed, a.Len(), a.NumNodes(), len(ref))
		}
		var pre, post []int
		var visit func(i int)
		visit = func(i int) {
			pre = append(pre, i)
			for _, c := range ref[i].kids {
				visit(c)
			}
			post = append(post, i)
		}
		visit(0)
		var wl, wc, bc float64
		for _, i := range pre {
			n, s := ref[i], int32(i)
			if a.Kind[s] != n.kind || int(a.Parent[s]) != n.parent || a.SinkCap[s] != n.cap {
				t.Fatalf("seed %d: slot %d fields differ from the model", seed, i)
			}
			if b, _ := a.Buf(s); b != n.buf {
				t.Fatalf("seed %d: slot %d composite %+v, want %+v", seed, i, b, n.buf)
			}
			if !reflect.DeepEqual(a.Route(s), n.route) && (len(n.route) > 0 || a.RouteLen[s] > 0) {
				t.Fatalf("seed %d: slot %d route %v, want %v", seed, i, a.Route(s), n.route)
			}
			if got := a.Children(s); len(got) != len(n.kids) || (len(got) > 0 && !reflect.DeepEqual(toInts(got), n.kids)) {
				t.Fatalf("seed %d: slot %d children %v, want %v", seed, i, got, n.kids)
			}
			if n.parent >= 0 {
				l := n.route.Length()
				wl += l
				wc += a.Tech.Wires[0].CPerUm * l
				if got, want := a.EdgeRes(s), a.Tech.Wires[0].RPerUm*l; got != want {
					t.Fatalf("seed %d: edgeres(%d) %v != %v", seed, i, got, want)
				}
			}
			if n.buf.N > 0 {
				bc += n.buf.CapCost()
			}
		}
		if got := a.Wirelength(); got != wl {
			t.Fatalf("seed %d: wirelength %v != %v", seed, got, wl)
		}
		if got := a.WireCap(); got != wc {
			t.Fatalf("seed %d: wirecap %v != %v", seed, got, wc)
		}
		if got := a.BufferCap(); got != bc {
			t.Fatalf("seed %d: buffercap %v != %v", seed, got, bc)
		}
		if got := a.TotalCap(); got != wc+bc {
			t.Fatalf("seed %d: totalcap %v != %v", seed, got, wc+bc)
		}

		// Pre/post-order visit sequences match the model's traversals.
		var gotPre, gotPost []int
		a.PreOrder(func(i int32) { gotPre = append(gotPre, int(i)) })
		a.PostOrder(func(i int32) { gotPost = append(gotPost, int(i)) })
		if !reflect.DeepEqual(pre, gotPre) {
			t.Fatalf("seed %d: preorder differs", seed)
		}
		if !reflect.DeepEqual(post, gotPost) {
			t.Fatalf("seed %d: postorder differs", seed)
		}
	}
}

func toInts(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
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
	a, _ := buildArena(t, rng)
	cp := a.Clone()
	before := a.Clone()
	// Mutate the clone heavily; the original must not move.
	sinks := cp.Sinks()
	cp.AddSink(cp.Root(), geom.Pt(7, 9), 12, "extra")
	cp.InsertOnEdge(sinks[0], 1, Internal)
	cp.DeleteSubtree(sinks[len(sinks)-1])
	sameContent(t, before, a)
	if reflect.DeepEqual(a.DirtyIDs(), cp.DirtyIDs()) {
		t.Fatal("clone mutations journaled on the original")
	}
}

func TestArenaValidateCatchesDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, _ := buildArena(t, rng)
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

// TestAddChildLMatchesAddChild: AddChildL writes point for point the
// horizontal-first L-shape geom.LShape gives.
func TestAddChildLMatchesAddChild(t *testing.T) {
	tk := tech.Default45()
	for _, pts := range [][2]geom.Point{
		{geom.Pt(0, 0), geom.Pt(100, 50)},  // true L
		{geom.Pt(10, 10), geom.Pt(10, 80)}, // vertical
		{geom.Pt(10, 10), geom.Pt(90, 10)}, // horizontal
		{geom.Pt(5, 5), geom.Pt(5, 5)},     // degenerate
	} {
		a := NewArena(tk, pts[0], 0.1, BuildHints{})
		sa := a.AddChildL(a.Root(), Internal, pts[1])
		if want := geom.LShape(pts[0], pts[1])[0]; !reflect.DeepEqual(a.Route(sa), want) {
			t.Fatalf("%v->%v: AddChildL route %v != LShape route %v",
				pts[0], pts[1], a.Route(sa), want)
		}
	}
}
