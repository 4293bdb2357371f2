package geom

import "testing"

func TestRectNormalization(t *testing.T) {
	r := NewRect(10, 20, 0, 5)
	if r.MinX != 0 || r.MinY != 5 || r.MaxX != 10 || r.MaxY != 20 {
		t.Errorf("NewRect not normalized: %v", r)
	}
	if r.W() != 10 || r.H() != 15 {
		t.Errorf("W/H wrong: %v %v", r.W(), r.H())
	}
	if r.Area() != 150 {
		t.Errorf("Area=%v", r.Area())
	}
}

func TestContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 10)) || !r.Contains(Pt(5, 5)) {
		t.Error("boundary/interior should be contained")
	}
	if r.ContainsStrict(Pt(0, 5)) {
		t.Error("boundary should not be strictly contained")
	}
	if r.Contains(Pt(11, 5)) {
		t.Error("outside point contained")
	}
}

func TestIntersects(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	cases := []struct {
		b              Rect
		touch, overlap bool
	}{
		{NewRect(5, 5, 15, 15), true, true},
		{NewRect(10, 0, 20, 10), true, false}, // abutting edge
		{NewRect(11, 0, 20, 10), false, false},
		{NewRect(2, 2, 8, 8), true, true}, // contained
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.touch {
			t.Errorf("Intersects(%v)=%v want %v", c.b, got, c.touch)
		}
		if got := a.IntersectsStrict(c.b); got != c.overlap {
			t.Errorf("IntersectsStrict(%v)=%v want %v", c.b, got, c.overlap)
		}
	}
}

func TestSegmentIntersects(t *testing.T) {
	r := NewRect(10, 10, 20, 20)
	cases := []struct {
		a, b Point
		want bool
	}{
		{Pt(0, 15), Pt(30, 15), true},   // horizontal through
		{Pt(15, 0), Pt(15, 30), true},   // vertical through
		{Pt(0, 10), Pt(30, 10), false},  // along bottom edge
		{Pt(10, 0), Pt(10, 30), false},  // along left edge
		{Pt(0, 5), Pt(30, 5), false},    // below
		{Pt(12, 12), Pt(18, 12), true},  // fully inside
		{Pt(0, 15), Pt(12, 15), true},   // enters interior
		{Pt(0, 15), Pt(10, 15), false},  // stops at boundary
		{Pt(25, 15), Pt(30, 15), false}, // outside to the right
	}
	for _, c := range cases {
		if got := r.SegmentIntersects(c.a, c.b); got != c.want {
			t.Errorf("SegmentIntersects(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUnionInflate(t *testing.T) {
	a := NewRect(0, 0, 5, 5)
	b := NewRect(3, 3, 10, 12)
	u := a.Union(b)
	if u != (Rect{0, 0, 10, 12}) {
		t.Errorf("Union=%v", u)
	}
	in := a.Inflate(2)
	if in != (Rect{-2, -2, 7, 7}) {
		t.Errorf("Inflate=%v", in)
	}
	if !a.Inflate(-3).Empty() {
		t.Error("over-shrunk rect should be empty")
	}
}
