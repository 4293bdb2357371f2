package eco_test

import (
	"reflect"
	"strings"
	"testing"

	"contango/internal/bench"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/eco"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/tech"
)

// applyBench is a small synthesizable benchmark for Apply tests.
func applyBench() *bench.Benchmark {
	locs := []geom.Point{
		{X: 2500, Y: 800}, {X: 2600, Y: 2100}, {X: 3500, Y: 1500},
		{X: 1500, Y: 2600}, {X: 3200, Y: 2900}, {X: 900, Y: 900},
		{X: 2100, Y: 1700}, {X: 3900, Y: 600},
	}
	var sinks []dme.Sink
	for i, l := range locs {
		sinks = append(sinks, dme.Sink{Loc: l, Cap: 25 + float64(i), Name: string(rune('a' + i))})
	}
	b := &bench.Benchmark{
		Name:    "apply-fixture",
		Die:     geom.NewRect(0, 0, 4200, 3200),
		Source:  geom.Pt(0, 1600),
		SourceR: 0.1,
		Sinks:   sinks,
	}
	b.CapLimit = 60000
	return b
}

func buildArena(t *testing.T, tk *tech.Tech, b *bench.Benchmark) *ctree.Arena {
	t.Helper()
	a := dme.BuildZSTArena(tk, b.Source, b.Sinks, dme.Options{})
	a.SourceR = b.SourceR
	return a
}

func sinkSlots(a *ctree.Arena) map[string]int32 {
	m := map[string]int32{}
	for i := 0; i < a.Len(); i++ {
		if a.Alive.Test(i) && a.Kind[i] == ctree.Sink && a.Name[i] != "" {
			m[a.Name[i]] = int32(i)
		}
	}
	return m
}

func TestApplyMoveAddRemove(t *testing.T) {
	tk := tech.Default45()
	b := applyBench()
	a := buildArena(t, tk, b)
	d := &eco.Delta{
		Moved:   []eco.SinkMove{{Name: "a", Loc: geom.Pt(700, 2800)}},
		Added:   []eco.SinkAdd{{Name: "z", Loc: geom.Pt(3600, 2500), Cap: 18}},
		Removed: []string{"b"},
	}
	eco.ReserveFor(a, d)
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	rep, err := eco.Apply(a, d, eco.Config{Composite: comp, Die: b.Die})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved != 1 || rep.Added != 1 || rep.Removed != 1 {
		t.Fatalf("report %+v, want 1 move / 1 add / 1 remove", rep)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("arena invalid after apply: %v", err)
	}
	slots := sinkSlots(a)
	if _, gone := slots["b"]; gone {
		t.Fatal("removed sink still live")
	}
	if s, ok := slots["a"]; !ok || a.Loc[s] != geom.Pt(700, 2800) {
		t.Fatalf("moved sink not at target (ok=%v)", ok)
	}
	if s, ok := slots["z"]; !ok || a.Loc[s] != geom.Pt(3600, 2500) || a.SinkCap[s] != 18 {
		t.Fatalf("added sink missing or wrong (ok=%v)", ok)
	}
	if len(slots) != len(b.Sinks) {
		t.Fatalf("%d sinks after apply, want %d", len(slots), len(b.Sinks))
	}
	if rep.DirtySlots == 0 {
		t.Fatal("apply left an empty mutation journal")
	}
	// The tree stays consistent.
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeterministic(t *testing.T) {
	tk := tech.Default45()
	b := applyBench()
	base := buildArena(t, tk, b)
	d := &eco.Delta{
		Moved:   []eco.SinkMove{{Name: "c", Loc: geom.Pt(300, 300)}, {Name: "f", Loc: geom.Pt(4000, 3000)}},
		Added:   []eco.SinkAdd{{Name: "y", Loc: geom.Pt(2000, 500), Cap: 22}},
		Removed: []string{"h"},
	}
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	run := func() *ctree.Arena {
		w := base.Clone()
		eco.ReserveFor(w, d)
		if _, err := eco.Apply(w, d, eco.Config{Composite: comp, Die: b.Die}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	a1, a2 := run(), run()
	type shape struct {
		Kind   []ctree.Kind
		Parent []int32
		Loc    []geom.Point
		Name   []string
		BufN   []int32
		Cap    []float64
		Dirty  []int
	}
	mk := func(a *ctree.Arena) shape {
		return shape{a.Kind, a.Parent, a.Loc, a.Name, a.BufN, a.SinkCap, a.DirtyIDs()}
	}
	if !reflect.DeepEqual(mk(a1), mk(a2)) {
		t.Fatal("two applies of the same delta on the same base diverged")
	}
}

func TestApplyWithObstaclesStaysLegal(t *testing.T) {
	tk := tech.Default45()
	b := applyBench()
	b.Obstacles = []geom.Obstacle{{Rect: geom.NewRect(1800, 1100, 2400, 1500), Name: "m0"}}
	a := buildArena(t, tk, b)
	obs := geom.NewObstacleSet(b.Obstacles)
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	// Drop a sink right next to the obstacle so repair routing has to care.
	d := &eco.Delta{Added: []eco.SinkAdd{{Name: "z", Loc: geom.Pt(2100, 1600), Cap: 20}}}
	eco.ReserveFor(a, d)
	rep, err := eco.Apply(a, d, eco.Config{Composite: comp, Obs: obs, Die: b.Die})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if bad := route.CheckLegalArena(a, obs, 1e9); len(bad) != 0 {
		t.Fatalf("%d illegal edges after obstacle-scoped apply", len(bad))
	}
	if rep.DirtySlots == 0 {
		t.Fatal("no dirty slots recorded")
	}
}

func TestApplyErrors(t *testing.T) {
	tk := tech.Default45()
	b := applyBench()
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	cases := []struct {
		d    *eco.Delta
		want string
	}{
		{&eco.Delta{Removed: []string{"nope"}}, "no sink"},
		{&eco.Delta{Moved: []eco.SinkMove{{Name: "nope", Loc: geom.Pt(1, 1)}}}, "no sink"},
		{&eco.Delta{Added: []eco.SinkAdd{{Name: "a", Loc: geom.Pt(1, 1), Cap: 5}}}, "already exists"},
	}
	for i, c := range cases {
		a := buildArena(t, tk, b)
		if _, err := eco.Apply(a, c.d, eco.Config{Composite: comp, Die: b.Die}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want mention of %q", i, err, c.want)
		}
	}

	// A name the delta edits must be unique in the tree.
	dup := applyBench()
	dup.Sinks[3].Name = "a" // collides with sink 0
	a := buildArena(t, tk, dup)
	d := &eco.Delta{Moved: []eco.SinkMove{{Name: "a", Loc: geom.Pt(50, 50)}}}
	if _, err := eco.Apply(a, d, eco.Config{Composite: comp, Die: dup.Die}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate-name tree: err = %v, want mention of \"duplicate\"", err)
	}
}

// TestApplyPrunesDeadChain: removing every sink under a branch must prune
// the branch itself (no topology garbage accumulates across ECO rounds).
func TestApplyPrunesDeadChain(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	hubA := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(400, 0))
	hubB := a.AddChildL(hubA, ctree.Internal, geom.Pt(400, 300))
	a.AddSink(hubB, geom.Pt(500, 400), 20, "s1") // hubB's only child
	a.AddSink(hubA, geom.Pt(800, 0), 20, "keep1")
	a.AddSink(a.Root(), geom.Pt(0, 500), 20, "keep2")
	a.Dirty.Reset()
	d := &eco.Delta{Removed: []string{"s1"}}
	eco.ReserveFor(a, d)
	rep, err := eco.Apply(a, d, eco.Config{Die: geom.NewRect(0, 0, 1000, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned == 0 {
		t.Fatalf("dead branch survived: %+v", rep)
	}
	if a.Alive.Test(int(hubB)) {
		t.Fatal("childless hub still alive")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(sinkSlots(a)); got != 2 {
		t.Fatalf("%d sinks left, want 2", got)
	}
}
