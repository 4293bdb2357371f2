package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestMazeRouteEmptyGrid(t *testing.T) {
	die := NewRect(0, 0, 1000, 1000)
	m := NewMaze(die, 10, nil)
	a, b := Pt(100, 100), Pt(900, 700)
	pl, err := m.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !pl[0].Eq(a, 0) || !pl[len(pl)-1].Eq(b, 0) {
		t.Fatalf("route endpoints wrong: %v", pl)
	}
	// On an empty grid the route must be (near) the Manhattan distance;
	// grid snapping can add at most a couple of cells.
	if pl.Length() > a.Manhattan(b)+4*m.Step() {
		t.Errorf("route length %v >> manhattan %v", pl.Length(), a.Manhattan(b))
	}
}

func TestMazeRouteAvoidsObstacle(t *testing.T) {
	die := NewRect(0, 0, 1000, 1000)
	obs := NewObstacleSet([]Obstacle{{Rect: NewRect(400, 0, 600, 900)}})
	m := NewMaze(die, 10, obs)
	a, b := Pt(100, 450), Pt(900, 450)
	pl, err := m.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	core := NewObstacleSet([]Obstacle{{Rect: NewRect(400+10, 0+10, 600-10, 900-10)}})
	for i := 1; i < len(pl); i++ {
		if core.SegmentCrossesAny(pl[i-1], pl[i]) {
			t.Errorf("route crosses obstacle interior: %v", pl)
		}
	}
	// Detour must go over the top (y>900): length >= direct + 2*(900-450) - slack
	want := a.Manhattan(b) + 2*(900-450)
	if pl.Length() < want-50 {
		t.Errorf("route length %v suspiciously short, want >= %v", pl.Length(), want)
	}
}

func TestMazeRouteNoPath(t *testing.T) {
	die := NewRect(0, 0, 100, 100)
	// Wall fully dividing the die.
	obs := NewObstacleSet([]Obstacle{{Rect: NewRect(45, -10, 55, 110)}})
	m := NewMaze(die, 5, obs)
	_, err := m.Route(Pt(10, 50), Pt(90, 50))
	if err != ErrNoRoute {
		t.Fatalf("want ErrNoRoute, got %v", err)
	}
}

func TestMazeRouteSamePoint(t *testing.T) {
	m := NewMaze(NewRect(0, 0, 100, 100), 5, nil)
	pl, err := m.Route(Pt(50, 50), Pt(50, 50))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Length() != 0 {
		t.Errorf("zero route has length %v", pl.Length())
	}
}

func TestMazeRouteMatchesManhattanOnEmptyGrid(t *testing.T) {
	// Property: on an obstacle-free grid, maze routes are shortest paths.
	die := NewRect(0, 0, 500, 500)
	m := NewMaze(die, 10, nil)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		a := Pt(float64(rng.Intn(50))*10, float64(rng.Intn(50))*10)
		b := Pt(float64(rng.Intn(50))*10, float64(rng.Intn(50))*10)
		pl, err := m.Route(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pl.Length()-a.Manhattan(b)) > 1e-6 {
			t.Fatalf("route %v->%v length %v want %v", a, b, pl.Length(), a.Manhattan(b))
		}
		for j := 1; j < len(pl); j++ {
			if pl[j-1].X != pl[j].X && pl[j-1].Y != pl[j].Y {
				t.Fatalf("non-rectilinear segment in %v", pl)
			}
		}
	}
}

func TestMazeRouteScratchReuse(t *testing.T) {
	// Repeated Route calls on one Maze must not grow scratch per call: after
	// a warm-up, the only allocations left are the returned polyline (the
	// Rectify copy and, when it drops points, the Simplify copy).
	die := NewRect(0, 0, 1000, 1000)
	obs := NewObstacleSet([]Obstacle{{Rect: NewRect(400, 0, 600, 900)}})
	m := NewMaze(die, 10, obs)
	a, b := Pt(100, 450), Pt(900, 450)
	if _, err := m.Route(a, b); err != nil { // warm up scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Route(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Route allocates %.0f objects per call, want <= 2 (result only)", allocs)
	}
}

func TestMazeRouteScratchDoesNotAliasResult(t *testing.T) {
	// The returned polyline must survive later Route calls reusing scratch.
	m := NewMaze(NewRect(0, 0, 500, 500), 10, nil)
	first, err := m.Route(Pt(10, 10), Pt(490, 480))
	if err != nil {
		t.Fatal(err)
	}
	saved := append(Polyline(nil), first...)
	for i := 0; i < 5; i++ {
		if _, err := m.Route(Pt(float64(20*i), 490), Pt(480, float64(30*i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := range saved {
		if !first[i].Eq(saved[i], 0) {
			t.Fatalf("result polyline mutated by later Route calls at %d: %v != %v", i, first[i], saved[i])
		}
	}
}

func TestMazeEscapeFromBlockedEndpoint(t *testing.T) {
	// A sink sitting inside an obstacle footprint (cell-wise) must still be
	// reachable: escape through blocked cells is allowed at the endpoints.
	die := NewRect(0, 0, 200, 200)
	obs := NewObstacleSet([]Obstacle{{Rect: NewRect(90, 90, 110, 110)}})
	m := NewMaze(die, 5, obs)
	pl, err := m.Route(Pt(100, 100), Pt(10, 10))
	if err != nil {
		t.Fatalf("blocked endpoint should be escapable: %v", err)
	}
	if !pl[0].Eq(Pt(100, 100), 0) {
		t.Errorf("route must start at requested point")
	}
}
