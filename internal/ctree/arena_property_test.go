package ctree_test

import (
	"math/rand"
	"reflect"
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// The arena is only trustworthy if an arbitrary interleaving of structural
// surgery leaves it indistinguishable from the pointer tree: same
// reconstructed tree and bit-identical evaluation results, with every slot
// the surgery changed marked dirty. This property test drives both
// representations with mirrored random mutation sequences and checks all
// three.

// propFixture seeds a tree with enough structure that every op class has
// candidates: a buffer chain, branch points, and a handful of sinks.
func propFixture(rng *rand.Rand, tk *tech.Tech) *ctree.Tree {
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	trunk := tr.AddChild(tr.Root, ctree.Buffer, geom.Pt(500, 50))
	c := comp
	trunk.Buf = &c
	hubs := []*ctree.Node{trunk}
	for i := 0; i < 3; i++ {
		p := hubs[rng.Intn(len(hubs))]
		hubs = append(hubs, tr.AddChild(p, ctree.Internal,
			geom.Pt(p.Loc.X+200+rng.Float64()*400, p.Loc.Y+rng.Float64()*400-200)))
	}
	for i := 0; i < 6; i++ {
		p := hubs[rng.Intn(len(hubs))]
		tr.AddSink(p, geom.Pt(p.Loc.X+100+rng.Float64()*200, p.Loc.Y+rng.Float64()*200),
			15+rng.Float64()*30, "")
	}
	return tr
}

// liveNodes returns the IDs of all live nodes satisfying keep.
func liveNodes(tr *ctree.Tree, keep func(*ctree.Node) bool) []int {
	var ids []int
	for id := 0; id < tr.MaxID(); id++ {
		if n := tr.Node(id); n != nil && keep(n) {
			ids = append(ids, id)
		}
	}
	return ids
}

// inSubtree reports whether target is inside n's subtree (including n).
func inSubtree(n, target *ctree.Node) bool {
	stack := []*ctree.Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == target {
			return true
		}
		stack = append(stack, cur.Children...)
	}
	return false
}

// mutateBoth applies one random mutation to the tree and mirrors it on the
// arena; it returns false when the drawn op class had no candidate.
func mutateBoth(rng *rand.Rand, tr *ctree.Tree, a *ctree.Arena) bool {
	pick := func(ids []int) (int, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	nonRoot := func(n *ctree.Node) bool { return n.Parent != nil }
	switch rng.Intn(6) {
	case 0: // grow an internal node
		id, ok := pick(liveNodes(tr, func(n *ctree.Node) bool { return n.Kind != ctree.Sink }))
		if !ok {
			return false
		}
		p := tr.Node(id)
		loc := geom.Pt(p.Loc.X+50+rng.Float64()*150, p.Loc.Y+rng.Float64()*150-75)
		n := tr.AddChild(p, ctree.Internal, loc)
		if an := a.AddChildL(int32(id), ctree.Internal, loc); int32(n.ID) != an {
			panic("child slot diverged from node ID")
		}
	case 1: // edge split
		id, ok := pick(liveNodes(tr, nonRoot))
		if !ok {
			return false
		}
		n := tr.Node(id)
		d := rng.Float64() * n.EdgeLen()
		mid := tr.InsertOnEdge(n, d, ctree.Internal)
		amid := a.InsertOnEdge(int32(id), d, ctree.Internal)
		if int32(mid.ID) != amid {
			panic("insert slot diverged from node ID")
		}
	case 2: // splice out a degree-2 internal
		id, ok := pick(liveNodes(tr, func(n *ctree.Node) bool {
			return n.Parent != nil && len(n.Children) == 1 && n.Kind == ctree.Internal
		}))
		if !ok {
			return false
		}
		tr.RemoveDegree2(tr.Node(id))
		a.RemoveDegree2(int32(id))
	case 3: // grow a sink
		id, ok := pick(liveNodes(tr, func(n *ctree.Node) bool { return n.Kind != ctree.Sink }))
		if !ok {
			return false
		}
		p := tr.Node(id)
		loc := geom.Pt(p.Loc.X+50+rng.Float64()*150, p.Loc.Y+rng.Float64()*150)
		cap := 10 + rng.Float64()*20
		ns := tr.AddSink(p, loc, cap, "")
		ans := a.AddSink(int32(id), loc, cap, "")
		if int32(ns.ID) != ans {
			panic("sink slot diverged from node ID")
		}
	case 4: // reparent a subtree
		id, ok := pick(liveNodes(tr, nonRoot))
		if !ok {
			return false
		}
		n := tr.Node(id)
		tid, ok := pick(liveNodes(tr, func(c *ctree.Node) bool {
			return c.Kind != ctree.Sink && !inSubtree(n, c)
		}))
		if !ok {
			return false
		}
		tr.Detach(n)
		a.Detach(int32(id))
		tr.Attach(n, tr.Node(tid), nil)
		a.Attach(int32(id), int32(tid), nil)
	case 5: // prune a small subtree (keep the net evaluable)
		ids := liveNodes(tr, func(n *ctree.Node) bool {
			return n.Parent != nil && len(n.Children) == 0 && n.Kind != ctree.Sink
		})
		if len(tr.Sinks()) > 2 {
			ids = append(ids, liveNodes(tr, func(n *ctree.Node) bool {
				return n.Parent != nil && n.Kind == ctree.Sink
			})...)
		}
		id, ok := pick(ids)
		if !ok {
			return false
		}
		tr.DeleteSubtree(tr.Node(id))
		a.DeleteSubtree(int32(id))
	}
	return true
}

// structuralBurst applies count ops of one structural surgery class to
// both representations, returning how many actually applied. Unlike
// mutateBoth's uniform mix, a burst hammers a single mutator — the access
// pattern ECO replay produces (a wave of detaches, then a wave of
// attachments, then edge splits) — which is what shakes out drift between
// the pointer tree and the arena's span-based storage.
func structuralBurst(rng *rand.Rand, tr *ctree.Tree, a *ctree.Arena, class, count int) int {
	pick := func(ids []int) (int, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	nonRoot := func(n *ctree.Node) bool { return n.Parent != nil }
	applied := 0
	for k := 0; k < count; k++ {
		switch class {
		case 0: // detach + reattach elsewhere
			id, ok := pick(liveNodes(tr, nonRoot))
			if !ok {
				continue
			}
			n := tr.Node(id)
			tid, ok := pick(liveNodes(tr, func(c *ctree.Node) bool {
				return c.Kind != ctree.Sink && !inSubtree(n, c)
			}))
			if !ok {
				continue
			}
			tr.Detach(n)
			a.Detach(int32(id))
			tr.Attach(n, tr.Node(tid), nil)
			a.Attach(int32(id), int32(tid), nil)
		case 1: // delete subtrees (keep at least 3 sinks alive)
			ids := liveNodes(tr, func(n *ctree.Node) bool {
				return n.Parent != nil && len(n.Children) == 0 && n.Kind != ctree.Sink
			})
			if len(tr.Sinks()) > 3 {
				ids = append(ids, liveNodes(tr, func(n *ctree.Node) bool {
					return n.Parent != nil && n.Kind == ctree.Sink
				})...)
			}
			id, ok := pick(ids)
			if !ok {
				continue
			}
			tr.DeleteSubtree(tr.Node(id))
			a.DeleteSubtree(int32(id))
		case 2: // edge splits
			id, ok := pick(liveNodes(tr, nonRoot))
			if !ok {
				continue
			}
			n := tr.Node(id)
			d := rng.Float64() * n.EdgeLen()
			mid := tr.InsertOnEdge(n, d, ctree.Internal)
			amid := a.InsertOnEdge(int32(id), d, ctree.Internal)
			if int32(mid.ID) != amid {
				panic("insert slot diverged from node ID")
			}
		case 3: // sink growth
			id, ok := pick(liveNodes(tr, func(n *ctree.Node) bool { return n.Kind != ctree.Sink }))
			if !ok {
				continue
			}
			p := tr.Node(id)
			loc := geom.Pt(p.Loc.X+30+rng.Float64()*120, p.Loc.Y+rng.Float64()*120)
			cap := 8 + rng.Float64()*25
			ns := tr.AddSink(p, loc, cap, "")
			ans := a.AddSink(int32(id), loc, cap, "")
			if int32(ns.ID) != ans {
				panic("sink slot diverged from node ID")
			}
		case 4: // degree-2 splices
			id, ok := pick(liveNodes(tr, func(n *ctree.Node) bool {
				return n.Parent != nil && len(n.Children) == 1 && n.Kind == ctree.Internal
			}))
			if !ok {
				continue
			}
			tr.RemoveDegree2(tr.Node(id))
			a.RemoveDegree2(int32(id))
		}
		applied++
	}
	return applied
}

// TestArenaPropertyStructuralBursts drives the pointer tree and the arena
// with mirrored bursts of structural surgery — the ECO access pattern —
// and requires, after every burst, a valid arena, and at the end a dirty
// bitmap covering every changed slot and a lossless ToTree round-trip.
func TestArenaPropertyStructuralBursts(t *testing.T) {
	tk := tech.Default45()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		tr := propFixture(rng, tk)
		a := ctree.FromTree(tr)
		before := a.Clone()
		applied := 0
		for burst := 0; burst < 8; burst++ {
			applied += structuralBurst(rng, tr, a, rng.Intn(5), 12)
			if err := a.Validate(); err != nil {
				t.Fatalf("seed %d burst %d: arena invalid: %v", seed, burst, err)
			}
		}
		if applied < 40 {
			t.Fatalf("seed %d: only %d ops applied; generator too narrow", seed, applied)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: tree invalid after bursts: %v", seed, err)
		}
		if missing := ctree.DirtyMissing(before, a); missing != nil {
			t.Fatalf("seed %d: changed slots missing from the dirty bitmap: %v", seed, missing)
		}
		back, err := a.ToTree()
		if err != nil {
			t.Fatalf("seed %d: ToTree: %v", seed, err)
		}
		if back.NumNodes() != tr.NumNodes() {
			t.Fatalf("seed %d: round-trip lost nodes: %d vs %d", seed, back.NumNodes(), tr.NumNodes())
		}
	}
}

func TestArenaPropertyRandomMutations(t *testing.T) {
	tk := tech.Default45()
	corner := tech.Corner{Name: "stress", Vdd: 1.05, RDerate: 1.12, CDerate: 0.94}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := propFixture(rng, tk)
		a := ctree.FromTree(tr)
		before := a.Clone()
		applied := 0
		for step := 0; step < 80; step++ {
			if mutateBoth(rng, tr, a) {
				applied++
			}
		}
		if applied < 40 {
			t.Fatalf("seed %d: only %d ops applied; generator too narrow", seed, applied)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: tree invalid after ops: %v", seed, err)
		}

		// 1. Structural equivalence through the lossless converter.
		back, err := a.ToTree()
		if err != nil {
			t.Fatalf("seed %d: ToTree: %v", seed, err)
		}

		// 2. Journal coverage: every slot that changed is marked dirty.
		if missing := ctree.DirtyMissing(before, a); missing != nil {
			t.Fatalf("seed %d: changed slots missing from the dirty bitmap: %v", seed, missing)
		}

		// 3. Evaluation equivalence, bit for bit, on both closed-form models.
		for _, ev := range []analysis.Evaluator{&analysis.Elmore{}, &analysis.TwoPole{}} {
			rt, err := ev.Evaluate(tr, corner)
			if err != nil {
				t.Fatalf("seed %d: %s on tree: %v", seed, ev.Name(), err)
			}
			ra, err := ev.Evaluate(back, corner)
			if err != nil {
				t.Fatalf("seed %d: %s on arena round-trip: %v", seed, ev.Name(), err)
			}
			if !reflect.DeepEqual(rt, ra) {
				t.Fatalf("seed %d: %s results differ between tree and arena round-trip", seed, ev.Name())
			}
		}

		// Compact must not change anything observable either.
		a.Compact()
		back2, err := a.ToTree()
		if err != nil {
			t.Fatalf("seed %d: ToTree after Compact: %v", seed, err)
		}
		r1, _ := (&analysis.Elmore{}).Evaluate(back, corner)
		r2, _ := (&analysis.Elmore{}).Evaluate(back2, corner)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("seed %d: Compact changed evaluation results", seed)
		}
	}
}
