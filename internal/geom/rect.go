package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle, MinX <= MaxX and MinY <= MaxY.
// Rectangles are closed: boundary points are contained.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect builds a normalized rectangle from two corner points.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.MaxX - r.MinX }

// H returns the height of r.
func (r Rect) H() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsStrict reports whether p lies strictly inside r (boundary exclusive).
func (r Rect) ContainsStrict(p Point) bool {
	return p.X > r.MinX && p.X < r.MaxX && p.Y > r.MinY && p.Y < r.MaxY
}

// Intersects reports whether r and s overlap (sharing only a boundary counts).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// IntersectsStrict reports whether r and s overlap with positive area.
func (r Rect) IntersectsStrict(s Rect) bool {
	return r.MinX < s.MaxX && s.MinX < r.MaxX && r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Union returns the bounding box of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		math.Min(r.MinX, s.MinX), math.Min(r.MinY, s.MinY),
		math.Max(r.MaxX, s.MaxX), math.Max(r.MaxY, s.MaxY),
	}
}

// Inflate returns r grown by d on every side (shrunk if d < 0).
func (r Rect) Inflate(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// Empty reports whether r has non-positive extent in either axis.
func (r Rect) Empty() bool { return r.MaxX <= r.MinX || r.MaxY <= r.MinY }

func (r Rect) String() string {
	return fmt.Sprintf("[%.1f,%.1f %.1fx%.1f]", r.MinX, r.MinY, r.W(), r.H())
}

// SegmentIntersects reports whether the axis-parallel segment a-b crosses the
// interior of r. A segment that only touches the boundary does not count:
// wires may legally run along obstacle edges.
func (r Rect) SegmentIntersects(a, b Point) bool {
	if a.X == b.X { // vertical
		if a.X <= r.MinX || a.X >= r.MaxX {
			return false
		}
		lo, hi := math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
		return lo < r.MaxY && hi > r.MinY
	}
	if a.Y == b.Y { // horizontal
		if a.Y <= r.MinY || a.Y >= r.MaxY {
			return false
		}
		lo, hi := math.Min(a.X, b.X), math.Max(a.X, b.X)
		return lo < r.MaxX && hi > r.MinX
	}
	// Non-axis-parallel segments are treated by their bounding box; the
	// router only ever produces axis-parallel wires, so this path is a
	// conservative fallback.
	return r.IntersectsStrict(NewRect(a.X, a.Y, b.X, b.Y))
}

// Corners returns the four corner points of r in counter-clockwise order
// starting from (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}
