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
// surgery leaves it valid, with every slot the surgery changed marked
// dirty, and if compacting its spans changes nothing an evaluator sees.
// These property tests drive random mutation sequences and check all three.

// propFixture seeds an arena with enough structure that every op class has
// candidates: a buffer chain, branch points, and a handful of sinks.
func propFixture(rng *rand.Rand, tk *tech.Tech) *ctree.Arena {
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	trunk := a.AddChildL(a.Root(), ctree.Buffer, geom.Pt(500, 50))
	a.SetBuf(trunk, tech.Composite{Type: tk.Inverters[1], N: 4})
	hubs := []int32{trunk}
	for i := 0; i < 3; i++ {
		p := hubs[rng.Intn(len(hubs))]
		hubs = append(hubs, a.AddChildL(p, ctree.Internal,
			geom.Pt(a.Loc[p].X+200+rng.Float64()*400, a.Loc[p].Y+rng.Float64()*400-200)))
	}
	for i := 0; i < 6; i++ {
		p := hubs[rng.Intn(len(hubs))]
		a.AddSink(p, geom.Pt(a.Loc[p].X+100+rng.Float64()*200, a.Loc[p].Y+rng.Float64()*200),
			15+rng.Float64()*30, "")
	}
	return a
}

// liveSlots returns the live slots satisfying keep, in index order.
func liveSlots(a *ctree.Arena, keep func(int32) bool) []int32 {
	var out []int32
	for i := int32(0); int(i) < a.Len(); i++ {
		if a.Alive.Test(int(i)) && keep(i) {
			out = append(out, i)
		}
	}
	return out
}

// inSubtree reports whether target is inside n's subtree (including n).
func inSubtree(a *ctree.Arena, n, target int32) bool {
	for cur := target; cur >= 0; cur = a.Parent[cur] {
		if cur == n {
			return true
		}
	}
	return false
}

// Op classes. mutate draws from all of them; a burst hammers one.
const (
	opDetachAttach = iota // detach a subtree and re-home it elsewhere
	opDelete              // prune a childless internal or a sink
	opSplit               // split an edge
	opAddSink             // grow a sink
	opSplice              // splice out a degree-2 internal
	opGrow                // grow an internal node
	numOps
)

// applyOp applies one op of class op and reports whether a candidate
// existed. minSinks keeps the net evaluable: sinks are pruned only while
// more than minSinks remain.
func applyOp(rng *rand.Rand, a *ctree.Arena, op, minSinks int) bool {
	pick := func(ids []int32) (int32, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	nonRoot := func(n int32) bool { return a.Parent[n] >= 0 }
	notSink := func(n int32) bool { return a.Kind[n] != ctree.Sink }
	switch op {
	case opDetachAttach:
		n, ok := pick(liveSlots(a, nonRoot))
		if !ok {
			return false
		}
		target, ok := pick(liveSlots(a, func(c int32) bool { return notSink(c) && !inSubtree(a, n, c) }))
		if !ok {
			return false
		}
		a.Detach(n)
		a.Attach(n, target, nil)
	case opDelete:
		ids := liveSlots(a, func(n int32) bool { return nonRoot(n) && a.ChildLen[n] == 0 && notSink(n) })
		if len(a.Sinks()) > minSinks {
			ids = append(ids, liveSlots(a, func(n int32) bool { return nonRoot(n) && !notSink(n) })...)
		}
		n, ok := pick(ids)
		if !ok {
			return false
		}
		a.DeleteSubtree(n)
	case opSplit:
		n, ok := pick(liveSlots(a, nonRoot))
		if !ok {
			return false
		}
		a.InsertOnEdge(n, rng.Float64()*a.EdgeLen(n), ctree.Internal)
	case opAddSink:
		p, ok := pick(liveSlots(a, notSink))
		if !ok {
			return false
		}
		loc := geom.Pt(a.Loc[p].X+30+rng.Float64()*120, a.Loc[p].Y+rng.Float64()*120)
		a.AddSink(p, loc, 8+rng.Float64()*25, "")
	case opSplice:
		n, ok := pick(liveSlots(a, func(n int32) bool {
			return nonRoot(n) && a.ChildLen[n] == 1 && a.Kind[n] == ctree.Internal
		}))
		if !ok {
			return false
		}
		a.RemoveDegree2(n)
	case opGrow:
		p, ok := pick(liveSlots(a, notSink))
		if !ok {
			return false
		}
		loc := geom.Pt(a.Loc[p].X+50+rng.Float64()*150, a.Loc[p].Y+rng.Float64()*150-75)
		a.AddChildL(p, ctree.Internal, loc)
	}
	return true
}

// mutate applies one op drawn uniformly from every class.
func mutate(rng *rand.Rand, a *ctree.Arena) bool { return applyOp(rng, a, rng.Intn(numOps), 2) }

// requireCompactInvisible evaluates a with both closed-form models, then
// compacts it and requires bit-identical results.
func requireCompactInvisible(t *testing.T, label string, a *ctree.Arena) {
	t.Helper()
	corner := tech.Corner{Name: "stress", Vdd: 1.05, RDerate: 1.12, CDerate: 0.94}
	evals := []analysis.Evaluator{&analysis.Elmore{}, &analysis.TwoPole{}}
	before := make([]*analysis.Result, len(evals))
	for k, ev := range evals {
		r, err := ev.Evaluate(ctree.NewTree(a), corner)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, ev.Name(), err)
		}
		before[k] = r
	}
	a.Compact()
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: after Compact: %v", label, err)
	}
	for k, ev := range evals {
		r, err := ev.Evaluate(ctree.NewTree(a), corner)
		if err != nil {
			t.Fatalf("%s: %s after Compact: %v", label, ev.Name(), err)
		}
		if !reflect.DeepEqual(before[k], r) {
			t.Fatalf("%s: Compact changed %s results", label, ev.Name())
		}
	}
}

// TestArenaPropertyStructuralBursts drives the arena with bursts of one
// structural surgery class at a time — the ECO access pattern: a wave of
// detaches, then a wave of attachments, then edge splits — and requires a
// valid arena after every burst, and at the end a dirty bitmap covering
// every changed slot and a Compact that no evaluator can see.
func TestArenaPropertyStructuralBursts(t *testing.T) {
	tk := tech.Default45()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		a := propFixture(rng, tk)
		before := a.Clone()
		applied := 0
		for burst := 0; burst < 8; burst++ {
			op := rng.Intn(opGrow) // every class but plain growth
			for k := 0; k < 12; k++ {
				if applyOp(rng, a, op, 3) {
					applied++
				}
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("seed %d burst %d: arena invalid: %v", seed, burst, err)
			}
		}
		if applied < 40 {
			t.Fatalf("seed %d: only %d ops applied; generator too narrow", seed, applied)
		}
		if missing := ctree.DirtyMissing(before, a); missing != nil {
			t.Fatalf("seed %d: changed slots missing from the dirty bitmap: %v", seed, missing)
		}
		requireCompactInvisible(t, "bursts", a)
	}
}

func TestArenaPropertyRandomMutations(t *testing.T) {
	tk := tech.Default45()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := propFixture(rng, tk)
		before := a.Clone()
		applied := 0
		for step := 0; step < 80; step++ {
			if mutate(rng, a) {
				applied++
			}
		}
		if applied < 40 {
			t.Fatalf("seed %d: only %d ops applied; generator too narrow", seed, applied)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: arena invalid after ops: %v", seed, err)
		}
		if missing := ctree.DirtyMissing(before, a); missing != nil {
			t.Fatalf("seed %d: changed slots missing from the dirty bitmap: %v", seed, missing)
		}
		requireCompactInvisible(t, "random", a)
	}
}
