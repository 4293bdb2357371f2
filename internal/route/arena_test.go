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

// legalizeGolden legalizes tr's arena form and compares the result, the
// report and the remaining heavy-crossing count against the digest in
// testdata/legalize.golden. The digests were recorded while the pointer
// legalizer still existed and produced the identical trees.
func legalizeGolden(t *testing.T, name string, tr *ctree.Tree, obs *geom.ObstacleSet, die geom.Rect, opt Options) {
	t.Helper()
	a, back, rep := legalize(t, tr, obs, die, opt)
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	ctreetest.RequireAMD64(t)
	ctreetest.Check(t, ctreetest.Golden(t, "testdata/legalize.golden"), name,
		ctreetest.Digest(back, rep, len(CheckLegalArena(a, obs, opt.SafeCap))))
}

func TestLegalizeArenaMatchesPointerDetour(t *testing.T) {
	tk := tech.Default45()
	tr, obs, die := buildEnclosedScenario(tk)
	legalizeGolden(t, "detour", tr, obs, die, Options{SafeCap: 300})
}

func TestLegalizeArenaMatchesPointerCapturedSink(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 4000, 4000)
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(1500, 1500, 2500, 2500)}})
	tr := ctree.New(tk, geom.Pt(0, 2000), 0.1)
	hub := tr.AddChild(tr.Root, ctree.Internal, geom.Pt(2000, 2000))
	tr.AddSink(hub, geom.Pt(2200, 2200), 30, "captive")
	c := tr.AddChild(hub, ctree.Internal, geom.Pt(3000, 2000))
	for k := 0; k < 20; k++ {
		tr.AddSink(c, geom.Pt(3000+float64(20*k), 2100), 50, "")
	}
	legalizeGolden(t, "captured-sink", tr, obs, die, Options{SafeCap: 400})
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
	tr, err := dme.BuildZSTArena(tk, geom.Pt(0, 4000), sinks, dme.Options{}).ToTree()
	if err != nil {
		t.Fatal(err)
	}
	legalizeGolden(t, "dme-tree", tr, obs, die, Options{SafeCap: tk.SlewSafeCap})
}

func TestLegalizeArenaNoObstaclesIsNoop(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(5))
	var sinks []dme.Sink
	for len(sinks) < 40 {
		sinks = append(sinks, dme.Sink{Loc: geom.Pt(rng.Float64()*2000, rng.Float64()*2000), Cap: 25})
	}
	a := dme.BuildZSTArena(tk, geom.Pt(0, 0), sinks, dme.Options{})
	before, err := a.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := LegalizeArena(a, nil, geom.NewRect(0, 0, 2000, 2000), Options{SafeCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	if *rep != (Report{}) {
		t.Fatalf("no-obstacle legalization did work: %v", rep)
	}
	after, err := a.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctree.Equal(before, after); err != nil {
		t.Fatal(err)
	}
}
