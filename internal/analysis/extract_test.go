package analysis_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"contango/internal/analysis"
	"contango/internal/buffering"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/tech"
)

// randomArena builds a seeded, fully constructed arena: ZST, legalization
// around random obstacles when obstructed, balanced buffering, polarity
// correction, then a few deleted sinks and spliced-out buffers so dead
// slots sit among the live ones. Half the cases skip Compact and keep
// their span garbage.
func randomArena(t *testing.T, seed int64, obstructed bool) *ctree.Arena {
	t.Helper()
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(seed))
	die := geom.NewRect(0, 0, 8000, 8000)
	var obs *geom.ObstacleSet
	if obstructed {
		var rects []geom.Obstacle
		for i := 0; i < 2+rng.Intn(3); i++ {
			x, y := 500+rng.Float64()*5500, 500+rng.Float64()*5500
			rects = append(rects, geom.Obstacle{Rect: geom.NewRect(x, y, x+400+rng.Float64()*1500, y+400+rng.Float64()*1500)})
		}
		obs = geom.NewObstacleSet(rects)
	}
	var sinks []dme.Sink
	for n := 30 + rng.Intn(170); len(sinks) < n; {
		p := geom.Pt(rng.Float64()*8000, rng.Float64()*8000)
		if obs != nil && obs.BlocksPoint(p) {
			continue
		}
		sinks = append(sinks, dme.Sink{Loc: p, Cap: 15 + rng.Float64()*35, Name: fmt.Sprintf("s%d", len(sinks))})
	}
	a := dme.BuildZSTArena(tk, geom.Pt(0, 4000), sinks, dme.Options{})
	a.SourceR = 0.05 + rng.Float64()*0.2
	comp := tech.Composite{Type: tk.Inverters[1], N: 2 + rng.Intn(10)}
	if obstructed {
		if _, err := route.LegalizeArena(a, obs, die, route.Options{SafeCap: buffering.SafeLoad(tk, comp)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := buffering.BalancedInsertArena(a, comp, buffering.Options{Obs: obs}); err != nil {
		t.Fatal(err)
	}
	buffering.CorrectPolarityArena(a, comp, obs)
	live := a.Sinks()
	for i := 0; i < 3 && len(live) > 10; i++ {
		a.DeleteSubtree(live[rng.Intn(len(live))])
		live = a.Sinks()
	}
	for i := int32(0); i < int32(a.Len()); i++ {
		if a.Alive.Test(int(i)) && a.Kind[i] == ctree.Buffer && a.ChildLen[i] == 1 && rng.Intn(8) == 0 {
			a.RemoveDegree2(i)
		}
	}
	if rng.Intn(2) == 0 {
		a.Compact()
	}
	if a.NumNodes() == a.Len() {
		t.Fatalf("seed %d: no dead slots", seed)
	}
	return a
}

// requireSameNet fails unless the two netlists are bit-identical: stage
// for stage the same driver, composite, links, RC arrays (compared by
// float bits), loads, sinks, key and signature.
func requireSameNet(t *testing.T, label string, got, want *analysis.Net) {
	t.Helper()
	if got.Tech != want.Tech || math.Float64bits(got.SourceR) != math.Float64bits(want.SourceR) {
		t.Fatalf("%s: tech or source resistance differ", label)
	}
	if len(got.Stages) != len(want.Stages) {
		t.Fatalf("%s: %d stages, want %d", label, len(got.Stages), len(want.Stages))
	}
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	for i, g := range got.Stages {
		w := want.Stages[i]
		switch {
		case g.Driver != w.Driver || g.Buf != w.Buf || g.Index != w.Index || g.Parent != w.Parent || g.InputNode != w.InputNode:
			t.Fatalf("%s: stage %d header differs: %+v vs %+v", label, i, g, w)
		case !bits(g.R, w.R) || !bits(g.C, w.C) || !slices.Equal(g.Par, w.Par):
			t.Fatalf("%s: stage %d RC arrays differ", label, i)
		case !slices.Equal(g.Loads, w.Loads) || !slices.Equal(g.Sinks, w.Sinks) || !slices.Equal(g.Children, w.Children):
			t.Fatalf("%s: stage %d loads, sinks or children differ", label, i)
		case g.Key() != w.Key() || g.Sig() != w.Sig():
			t.Fatalf("%s: stage %d key/sig %d/%x, want %d/%x", label, i, g.Key(), g.Sig(), w.Key(), w.Sig())
		}
	}
}

// extract extracts a fresh netlist from a.
func extract(t *testing.T, a *ctree.Arena) *analysis.Net {
	t.Helper()
	var net analysis.Net
	if err := net.Extract(a, 0); err != nil {
		t.Fatal(err)
	}
	return &net
}

// TestExtractIntoReusedNetMatchesFresh: a Net that held a large tree and is
// then extracted from a small one (and back) equals a fresh extraction.
func TestExtractIntoReusedNetMatchesFresh(t *testing.T) {
	var big, small *ctree.Arena
	for seed := int64(20); big == nil || small == nil; seed++ {
		a := randomArena(t, seed, false)
		switch {
		case a.Len() > 350 && big == nil:
			big = a
		case a.Len() < 200 && small == nil:
			small = a
		}
	}
	var net analysis.Net
	for _, step := range []struct {
		label string
		a     *ctree.Arena
	}{{"big", big}, {"big→small", small}, {"small→big", big}, {"big→small again", small}} {
		if err := net.Extract(step.a, 0); err != nil {
			t.Fatal(err)
		}
		requireSameNet(t, step.label, &net, extract(t, step.a))
	}
}

// TestExtractArenaRejectsBrokenSlots: a dead or out-of-range child slot, a
// child whose parent slot disagrees and a buffer without a composite are
// extraction errors, never a netlist.
func TestExtractArenaRejectsBrokenSlots(t *testing.T) {
	base := randomArena(t, 3, false)
	var internal, buf int32 = -1, -1
	base.PreOrder(func(i int32) {
		switch {
		case internal < 0 && parentOfKind(base, i, ctree.Internal):
			internal = i
		case buf < 0 && parentOfKind(base, i, ctree.Buffer):
			buf = i
		}
	})
	if internal < 0 || buf < 0 {
		t.Fatal("fixture lacks an internal node or a buffer")
	}
	for name, damage := range map[string]func(a *ctree.Arena){
		"dead child":     func(a *ctree.Arena) { a.Alive.Unset(int(a.Children(internal)[0])) },
		"dangling child": func(a *ctree.Arena) { a.Children(internal)[0] = int32(a.Len() + 5) },
		"wrong parent":   func(a *ctree.Arena) { a.Parent[a.Children(internal)[0]] = a.Root() },
		"bare buffer":    func(a *ctree.Arena) { a.BufN[buf] = 0 },
	} {
		a := base.Clone()
		damage(a)
		var net analysis.Net
		if err := net.Extract(a, 0); err == nil {
			t.Errorf("%s: extraction succeeded", name)
		}
	}
}

// parentOfKind reports whether slot i is a parent of the given kind.
func parentOfKind(a *ctree.Arena, i int32, kind ctree.Kind) bool {
	return a.Kind[i] == kind && a.ChildLen[i] > 0
}

// TestElmoreWorstMatchesEvaluate: the sweep's judge reads the same worst
// arrival and slew-violation count as a full Elmore evaluation through the
// tree handle, bit for bit, at every corner of pvt5.
func TestElmoreWorstMatchesEvaluate(t *testing.T) {
	set, err := corners.Build("pvt5", tech.Default45())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(40); seed < 46; seed++ {
		a := randomArena(t, seed, seed%2 == 1)
		tr := ctree.NewTree(a)
		net := extract(t, a)
		for _, c := range set.Corners {
			res, err := (&analysis.Elmore{}).Evaluate(tr, c)
			if err != nil {
				t.Fatal(err)
			}
			_, want, _, _ := res.Extremes()
			worst, viol := analysis.ElmoreWorst(net, c)
			if math.Float64bits(worst) != math.Float64bits(want) || viol != res.SlewViol {
				t.Fatalf("seed %d corner %v: judge (%v, %d), evaluate (%v, %d)", seed, c.Name, worst, viol, want, res.SlewViol)
			}
		}
	}
}
