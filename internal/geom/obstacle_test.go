package geom

import (
	"testing"
)

func TestCompoundGrouping(t *testing.T) {
	obs := []Obstacle{
		{Rect: NewRect(0, 0, 10, 10), Name: "a"},
		{Rect: NewRect(10, 0, 20, 10), Name: "b"},  // abuts a
		{Rect: NewRect(50, 50, 60, 60), Name: "c"}, // isolated
		{Rect: NewRect(5, 5, 15, 15), Name: "d"},   // overlaps a and b
	}
	s := NewObstacleSet(obs)
	if len(s.Compounds) != 2 {
		t.Fatalf("compounds=%d want 2", len(s.Compounds))
	}
	// a, b, d together; c alone.
	var big, small Compound
	for _, c := range s.Compounds {
		if len(c.Members) == 3 {
			big = c
		} else {
			small = c
		}
	}
	if len(big.Members) != 3 || len(small.Members) != 1 {
		t.Fatalf("member split wrong: %v / %v", big.Members, small.Members)
	}
	if big.BBox != (Rect{0, 0, 20, 15}) {
		t.Errorf("big bbox=%v", big.BBox)
	}
	if small.BBox != (Rect{50, 50, 60, 60}) {
		t.Errorf("small bbox=%v", small.BBox)
	}
}

func TestCompoundChainTransitivity(t *testing.T) {
	// A chain of abutting rects must merge into one compound even though the
	// ends do not touch each other.
	var obs []Obstacle
	for i := 0; i < 5; i++ {
		x := float64(i * 10)
		obs = append(obs, Obstacle{Rect: NewRect(x, 0, x+10, 10)})
	}
	s := NewObstacleSet(obs)
	if len(s.Compounds) != 1 {
		t.Fatalf("chain should form one compound, got %d", len(s.Compounds))
	}
	if s.Compounds[0].BBox != (Rect{0, 0, 50, 10}) {
		t.Errorf("bbox=%v", s.Compounds[0].BBox)
	}
}

func TestBlocksPointAndCompoundAt(t *testing.T) {
	s := NewObstacleSet([]Obstacle{{Rect: NewRect(0, 0, 10, 10)}})
	if !s.BlocksPoint(Pt(5, 5)) {
		t.Error("interior should block")
	}
	if s.BlocksPoint(Pt(0, 5)) {
		t.Error("boundary should not block (buffers may sit on edges)")
	}
	if s.BlocksPoint(Pt(50, 50)) {
		t.Error("outside should not block")
	}
	if got := s.CompoundAt(Pt(5, 5)); got != 0 {
		t.Errorf("CompoundAt=%d want 0", got)
	}
	if got := s.CompoundAt(Pt(50, 50)); got != -1 {
		t.Errorf("CompoundAt outside=%d want -1", got)
	}
}

func TestContourRing(t *testing.T) {
	s := NewObstacleSet([]Obstacle{{Rect: NewRect(100, 100, 200, 200)}})
	ring := s.Contour(0)
	if len(ring) != 5 {
		t.Fatalf("ring len=%d want 5 (closed)", len(ring))
	}
	if !ring[0].Eq(ring[len(ring)-1], 0) {
		t.Error("ring not closed")
	}
	want := 4 * (100 + 2*ContourMargin)
	if got := ring.Length(); got != want {
		t.Errorf("ring length=%v want %v", got, want)
	}
	// Every ring point must be a legal buffer site.
	for _, p := range ring {
		if s.BlocksPoint(p) {
			t.Errorf("ring point %v is blocked", p)
		}
	}
}

func TestClipRing(t *testing.T) {
	die := NewRect(0, 0, 100, 100)
	ring := Polyline{Pt(-10, -10), Pt(110, -10), Pt(110, 110), Pt(-10, 110), Pt(-10, -10)}
	clipped := ClipRing(ring, die)
	for _, p := range clipped {
		if !die.Contains(p) {
			t.Errorf("clipped point %v outside die", p)
		}
	}
}

func TestEmptyObstacleSet(t *testing.T) {
	s := NewObstacleSet(nil)
	if s.Len() != 0 || len(s.Compounds) != 0 {
		t.Error("empty set should have no obstacles or compounds")
	}
	if s.BlocksPoint(Pt(1, 1)) {
		t.Error("nothing should block")
	}
	if s.SegmentCrossesAny(Pt(0, 0), Pt(100, 0)) {
		t.Error("no segment crossing expected")
	}
}
