package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestManhattanBasics(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 7},
		{Pt(-1, -1), Pt(1, 1), 4},
		{Pt(5, 0), Pt(0, 0), 5},
		{Pt(2.5, 2.5), Pt(2.5, 7.5), 5},
	}
	for _, c := range cases {
		if got := c.a.Manhattan(c.b); got != c.want {
			t.Errorf("Manhattan(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestManhattanMetricAxioms(t *testing.T) {
	symmetric := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Manhattan(b) == b.Manhattan(a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		lhs := a.Manhattan(c)
		rhs := a.Manhattan(b) + b.Manhattan(c)
		if math.IsNaN(lhs) || math.IsNaN(rhs) || math.IsInf(rhs, 1) {
			return true // degenerate random floats
		}
		return lhs <= rhs*(1+1e-12)+1e-9
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
	nonneg := func(ax, ay, bx, by float64) bool {
		d := Pt(ax, ay).Manhattan(Pt(bx, by))
		return d >= 0 || math.IsNaN(d)
	}
	if err := quick.Check(nonneg, nil); err != nil {
		t.Errorf("non-negativity: %v", err)
	}
}

func TestLerpEndpointsAndMid(t *testing.T) {
	a, b := Pt(1, 2), Pt(5, 10)
	if got := a.Lerp(b, 0); !got.Eq(a, 0) {
		t.Errorf("Lerp(0)=%v want %v", got, a)
	}
	if got := a.Lerp(b, 1); !got.Eq(b, 0) {
		t.Errorf("Lerp(1)=%v want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); !got.Eq(Pt(3, 6), 0) {
		t.Errorf("Lerp(0.5)=%v want (3,6)", got)
	}
}

func TestClamp(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	cases := []struct{ in, want Point }{
		{Pt(-5, 5), Pt(0, 5)},
		{Pt(15, 15), Pt(10, 10)},
		{Pt(3, 4), Pt(3, 4)},
	}
	for _, c := range cases {
		if got := c.in.Clamp(r); !got.Eq(c.want, 0) {
			t.Errorf("Clamp(%v)=%v want %v", c.in, got, c.want)
		}
	}
}

func TestSub(t *testing.T) {
	p := Pt(1, 2)
	if got := p.Sub(Pt(3, 4)); !got.Eq(Pt(-2, -2), 0) {
		t.Errorf("Sub=%v", got)
	}
}
