package route

import (
	"math"
	"math/rand"
	"testing"

	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/tech"
)

// legalize runs LegalizeArena on a and returns the report.
func legalize(t *testing.T, a *ctree.Arena, obs *geom.ObstacleSet, die geom.Rect, opt Options) *Report {
	t.Helper()
	rep, err := LegalizeArena(a, obs, die, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestLShapeFlipFixesCrossing(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 2000, 2000)
	// Obstacle placed so the horizontal-first L crosses but vertical-first
	// does not.
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(400, -100, 600, 150)}})
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	a.AddSink(a.Root(), geom.Pt(1000, 800), 35, "s")
	rep := legalize(t, a, obs, die, Options{SafeCap: 1})
	if rep.LFlips != 1 {
		t.Errorf("LFlips=%d want 1 (%v)", rep.LFlips, rep)
	}
	if len(CheckLegalArena(a, obs, 1)) != 0 {
		t.Error("crossing should be gone after flip")
	}
}

func TestSafeCrossingLeftAlone(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 2000, 2000)
	// Obstacle blocks both L configurations (spans the whole corridor).
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(400, -100, 600, 2100)}})
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	a.AddSink(a.Root(), geom.Pt(1000, 1000), 35, "s")
	rep := legalize(t, a, obs, die, Options{SafeCap: 10000})
	if rep.Reroutes != 0 || rep.Detours != 0 {
		t.Errorf("small load should not trigger repair: %v", rep)
	}
	if rep.Crossing == 0 {
		t.Error("the slew-safe crossing should remain")
	}
}

func TestHeavyCrossingRerouted(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 2000, 2000)
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(400, -100, 600, 1800)}})
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	hub := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(1000, 500))
	// Heavy fan-out below the crossing edge.
	for i := 0; i < 20; i++ {
		a.AddSink(hub, geom.Pt(1200+float64(20*i), 600), 50, "")
	}
	rep := legalize(t, a, obs, die, Options{SafeCap: 200})
	if rep.Reroutes == 0 {
		t.Fatalf("heavy crossing should be rerouted: %v", rep)
	}
	if bad := CheckLegalArena(a, obs, 200); len(bad) != 0 {
		t.Errorf("%d heavy crossings remain", len(bad))
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// buildEnclosedScenario places a hub steiner point inside an obstacle with
// several outside subtrees fed through it — the paper's Fig. 2 situation.
func buildEnclosedScenario(tk *tech.Tech) (*ctree.Arena, *geom.ObstacleSet, geom.Rect) {
	die := geom.NewRect(0, 0, 4000, 4000)
	obs := geom.NewObstacleSet([]geom.Obstacle{
		{Rect: geom.NewRect(1500, 1500, 2500, 2500), Name: "macro"},
	})
	a := ctree.NewArena(tk, geom.Pt(0, 2000), 0.1, ctree.BuildHints{})
	hub := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(2000, 2000)) // inside macro
	// Four outside clusters fed from the captured hub.
	locs := []geom.Point{{X: 3000, Y: 2000}, {X: 2000, Y: 3000}, {X: 2000, Y: 1000}, {X: 3200, Y: 3200}}
	for _, l := range locs {
		c := a.AddChildL(hub, ctree.Internal, l)
		for k := 0; k < 8; k++ {
			a.AddSink(c, geom.Pt(l.X+float64(30*k), l.Y+100), 40, "")
		}
	}
	return a, obs, die
}

func TestContourDetourFigure2(t *testing.T) {
	tk := tech.Default45()
	a, obs, die := buildEnclosedScenario(tk)
	nSinks := len(a.Sinks())
	rep := legalize(t, a, obs, die, Options{SafeCap: 300})
	if rep.Detours != 1 {
		t.Fatalf("want 1 detour, got %v", rep)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Sinks()); got != nSinks {
		t.Fatalf("sinks lost: %d -> %d", nSinks, got)
	}
	// No internal node may remain strictly inside the obstacle.
	a.PreOrder(func(n int32) {
		if a.Kind[n] != ctree.Sink && obs.BlocksPoint(a.Loc[n]) {
			t.Errorf("node %d still inside obstacle at %v", n, a.Loc[n])
		}
	})
	if bad := CheckLegalArena(a, obs, 300); len(bad) != 0 {
		t.Errorf("%d heavy crossings remain after detour", len(bad))
	}
}

func TestDetourKeepsSmallEnclosedSubtree(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 4000, 4000)
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(1500, 1500, 2500, 2500)}})
	a := ctree.NewArena(tk, geom.Pt(0, 2000), 0.1, ctree.BuildHints{})
	hub := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(2000, 2000))
	a.AddSink(hub, geom.Pt(2600, 2000), 30, "s")
	rep := legalize(t, a, obs, die, Options{SafeCap: 5000})
	if rep.Detours != 0 {
		t.Errorf("tiny enclosed subtree should be driveable by one buffer: %v", rep)
	}
}

func TestDetourWithCapturedSink(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 4000, 4000)
	obs := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(1500, 1500, 2500, 2500)}})
	a := ctree.NewArena(tk, geom.Pt(0, 2000), 0.1, ctree.BuildHints{})
	hub := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(2000, 2000))
	a.AddSink(hub, geom.Pt(2200, 2200), 30, "captive")
	// Enough outside load to force a detour.
	c := a.AddChildL(hub, ctree.Internal, geom.Pt(3000, 2000))
	for k := 0; k < 20; k++ {
		a.AddSink(c, geom.Pt(3000+float64(20*k), 2100), 50, "")
	}
	rep := legalize(t, a, obs, die, Options{SafeCap: 400})
	if rep.Detours != 1 {
		t.Fatalf("expected detour: %v", rep)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// The captured sink survives, reachable, still at its location.
	found := false
	for _, s := range a.Sinks() {
		if a.Name[s] == "captive" {
			found = true
			if !a.Loc[s].Eq(geom.Pt(2200, 2200), 0) {
				t.Error("captured sink moved")
			}
		}
	}
	if !found {
		t.Fatal("captured sink lost")
	}
}

func TestLegalizeOnDMETreeWithObstacles(t *testing.T) {
	// Integration: a realistic ZST over a die with macros; after
	// legalization no heavy crossing may remain and the tree stays valid.
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 8000, 8000)
	obs := geom.NewObstacleSet([]geom.Obstacle{
		{Rect: geom.NewRect(1000, 1000, 3000, 2600)},
		{Rect: geom.NewRect(3000, 1000, 4200, 2000)}, // abuts -> compound
		{Rect: geom.NewRect(5000, 5000, 7000, 7200)},
	})
	rng := rand.New(rand.NewSource(11))
	var sinks []dme.Sink
	for len(sinks) < 120 {
		p := geom.Pt(rng.Float64()*8000, rng.Float64()*8000)
		if obs.BlocksPoint(p) {
			continue
		}
		sinks = append(sinks, dme.Sink{Loc: p, Cap: 20 + rng.Float64()*30})
	}
	a := dme.BuildZSTArena(tk, geom.Pt(0, 4000), sinks, dme.Options{})
	safe := tk.SlewSafeCap
	rep, err := LegalizeArena(a, obs, die, Options{SafeCap: safe})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if bad := CheckLegalArena(a, obs, safe); len(bad) != 0 {
		t.Errorf("%d heavy crossings remain (%v)", len(bad), rep)
	}
	if got := len(a.Sinks()); got != 120 {
		t.Errorf("sink count changed: %d", got)
	}
}

func TestRingArc(t *testing.T) {
	ring := geom.Polyline{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(0, 100), geom.Pt(0, 0),
	}
	arc := ringArc(ring, 50, 150)
	if math.Abs(arc.Length()-100) > 1e-9 {
		t.Errorf("arc length=%v want 100", arc.Length())
	}
	if !arc[0].Eq(geom.Pt(50, 0), 1e-9) || !arc[len(arc)-1].Eq(geom.Pt(100, 50), 1e-9) {
		t.Errorf("arc endpoints wrong: %v", arc)
	}
	// Wrapping arc: it must turn at the ring's start corner. Length alone
	// cannot tell (a diagonal shortcut has the same Manhattan length), so
	// check every segment is axis-parallel and the corner is on the arc.
	wrap := ringArc(ring, 350, 50)
	if math.Abs(wrap.Length()-100) > 1e-9 {
		t.Errorf("wrap length=%v want 100", wrap.Length())
	}
	corner := false
	for i, p := range wrap {
		corner = corner || p.Eq(geom.Pt(0, 0), 1e-9)
		if i > 0 && wrap[i-1].X != p.X && wrap[i-1].Y != p.Y {
			t.Errorf("wrap segment %d not rectilinear: %v", i, wrap)
		}
	}
	if !corner {
		t.Errorf("wrap arc skips the ring's start corner: %v", wrap)
	}
	// Degenerate.
	if d := ringArc(ring, 70, 70); d.Length() != 0 {
		t.Errorf("degenerate arc length=%v", d.Length())
	}
}

func TestProjectOntoRing(t *testing.T) {
	ring := geom.Polyline{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(0, 100), geom.Pt(0, 0),
	}
	pt, s := projectOntoRing(ring, geom.Pt(50, -30))
	if !pt.Eq(geom.Pt(50, 0), 1e-9) || math.Abs(s-50) > 1e-9 {
		t.Errorf("projection (%v, %v)", pt, s)
	}
	pt2, s2 := projectOntoRing(ring, geom.Pt(130, 50))
	if !pt2.Eq(geom.Pt(100, 50), 1e-9) || math.Abs(s2-150) > 1e-9 {
		t.Errorf("projection (%v, %v)", pt2, s2)
	}
}

func TestNoObstaclesNoOp(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	a.AddSink(a.Root(), geom.Pt(100, 100), 35, "s")
	wl := a.Wirelength()
	rep := legalize(t, a, geom.NewObstacleSet(nil), geom.NewRect(0, 0, 200, 200), Options{SafeCap: 1})
	if rep.LFlips+rep.Reroutes+rep.Detours+rep.Crossing != 0 {
		t.Errorf("no-op expected: %v", rep)
	}
	if a.Wirelength() != wl {
		t.Error("wirelength changed")
	}
}
