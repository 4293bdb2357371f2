// Package geom provides the planar geometry substrate used by the clock-tree
// synthesizer: points and rectangles in the Manhattan (L1) metric, polyline
// wire routes, compound placement obstacles, and an obstacle-aware grid maze
// router.
//
// Units are micrometers (µm) throughout, matching the rest of the library.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the die, in µm.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Manhattan returns the L1 (rectilinear wiring) distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Euclid returns the L2 distance between p and q. It is used only for
// diagnostics; wiring distances are always Manhattan.
func (p Point) Euclid(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Eq reports whether p and q coincide within tolerance eps.
func (p Point) Eq(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Lerp returns the point a fraction t of the way from p to q (t in [0,1]).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Clamp returns p with both coordinates clamped into r.
func (p Point) Clamp(r Rect) Point {
	x := math.Min(math.Max(p.X, r.MinX), r.MaxX)
	y := math.Min(math.Max(p.Y, r.MinY), r.MaxY)
	return Point{x, y}
}
