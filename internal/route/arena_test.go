package route

import (
	"math/rand"
	"testing"

	"contango/internal/ctree"
	"contango/internal/ctree/ctreetest"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/tech"
)

// legalizeGolden legalizes a and compares the result, the report and the
// remaining heavy-crossing count against the digest in
// testdata/legalize.golden. The digests were recorded while a pointer-tree
// legalizer still existed beside the arena one and produced the identical
// trees.
func legalizeGolden(t *testing.T, name string, a *ctree.Arena, obs *geom.ObstacleSet, die geom.Rect, opt Options) {
	t.Helper()
	rep := legalize(t, a, obs, die, opt)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	ctreetest.RequireAMD64(t)
	ctreetest.Check(t, ctreetest.Golden(t, "testdata/legalize.golden"), name,
		ctreetest.Digest(a, rep, len(CheckLegalArena(a, obs, opt.SafeCap))))
}

func TestLegalizeArenaMatchesPointerDetour(t *testing.T) {
	tk := tech.Default45()
	a, obs, die := buildEnclosedScenario(tk)
	legalizeGolden(t, "detour", a, obs, die, Options{SafeCap: 300})
}

func TestLegalizeArenaMatchesPointerCapturedSink(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 4000, 4000)
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(1500, 1500, 2500, 2500)}})
	a := ctree.NewArena(tk, geom.Pt(0, 2000), 0.1, ctree.BuildHints{})
	hub := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(2000, 2000))
	a.AddSink(hub, geom.Pt(2200, 2200), 30, "captive")
	c := a.AddChildL(hub, ctree.Internal, geom.Pt(3000, 2000))
	for k := 0; k < 20; k++ {
		a.AddSink(c, geom.Pt(3000+float64(20*k), 2100), 50, "")
	}
	legalizeGolden(t, "captured-sink", a, obs, die, Options{SafeCap: 400})
}

func TestLegalizeArenaMatchesPointerOnDMETree(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 8000, 8000)
	obs := geom.NewObstacleSet([]geom.Obstacle{
		{Rect: geom.NewRect(1000, 1000, 3000, 2600)},
		{Rect: geom.NewRect(3000, 1000, 4200, 2000)}, // abuts -> compound
		{Rect: geom.NewRect(5000, 5000, 7000, 7200)},
	})
	rng := rand.New(rand.NewSource(23))
	var sinks []dme.Sink
	for len(sinks) < 150 {
		p := geom.Pt(rng.Float64()*8000, rng.Float64()*8000)
		if obs.BlocksPoint(p) {
			continue
		}
		sinks = append(sinks, dme.Sink{Loc: p, Cap: 20 + rng.Float64()*30})
	}
	a := dme.BuildZSTArena(tk, geom.Pt(0, 4000), sinks, dme.Options{})
	legalizeGolden(t, "dme-tree", a, obs, die, Options{SafeCap: tk.SlewSafeCap})
}

func TestLegalizeArenaNoObstaclesIsNoop(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(5))
	var sinks []dme.Sink
	for len(sinks) < 40 {
		sinks = append(sinks, dme.Sink{Loc: geom.Pt(rng.Float64()*2000, rng.Float64()*2000), Cap: 25})
	}
	a := dme.BuildZSTArena(tk, geom.Pt(0, 0), sinks, dme.Options{})
	before := ctreetest.Digest(a)
	rep, err := LegalizeArena(a, nil, geom.NewRect(0, 0, 2000, 2000), Options{SafeCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	if *rep != (Report{}) {
		t.Fatalf("no-obstacle legalization did work: %v", rep)
	}
	if after := ctreetest.Digest(a); after != before {
		t.Fatal("no-obstacle legalization changed the tree")
	}
}
