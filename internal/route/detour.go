package route

import (
	"math"
	"sort"

	"contango/internal/geom"
)

// projectOntoRing returns the closest point on the ring to p and its
// arc-length parameter.
func projectOntoRing(ring geom.Polyline, p geom.Point) (geom.Point, float64) {
	bestD := math.Inf(1)
	var bestPt geom.Point
	bestS := 0.0
	acc := 0.0
	for i := 1; i < len(ring); i++ {
		a, b := ring[i-1], ring[i]
		segLen := a.Manhattan(b)
		q := closestOnSegment(a, b, p)
		if d := q.Manhattan(p); d < bestD {
			bestD = d
			bestPt = q
			bestS = acc + a.Manhattan(q)
		}
		acc += segLen
	}
	return bestPt, bestS
}

// closestOnSegment projects p onto the axis-parallel segment a-b.
func closestOnSegment(a, b, p geom.Point) geom.Point {
	if a.X == b.X {
		lo, hi := math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
		y := math.Min(math.Max(p.Y, lo), hi)
		return geom.Pt(a.X, y)
	}
	lo, hi := math.Min(a.X, b.X), math.Max(a.X, b.X)
	x := math.Min(math.Max(p.X, lo), hi)
	return geom.Pt(x, a.Y)
}

// ringArc returns the ring polyline from parameter s0 forward to s1
// (wrapping past the ring start when needed). Coincident parameters yield a
// zero-length stub, not a full loop.
func ringArc(ring geom.Polyline, s0, s1 float64) geom.Polyline {
	perim := ring.Length()
	mod := func(x float64) float64 {
		m := math.Mod(x, perim)
		if m < 0 {
			m += perim
		}
		return m
	}
	s0, s1 = mod(s0), mod(s1)
	span := mod(s1 - s0)
	if span < 1e-9 {
		return geom.Polyline{ring.At(s0), ring.At(s1)}
	}
	type vert struct {
		d  float64
		pt geom.Point
	}
	var vs []vert
	acc := 0.0
	for i := 0; i < len(ring)-1; i++ { // skip the closing vertex (== first)
		if i > 0 {
			acc += ring[i-1].Manhattan(ring[i])
		}
		d := mod(acc - s0)
		if d > 1e-9 && d < span-1e-9 {
			vs = append(vs, vert{d: d, pt: ring[i]})
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].d < vs[j].d })
	out := geom.Polyline{ring.At(s0)}
	for _, v := range vs {
		out = append(out, v.pt)
	}
	out = append(out, ring.At(s1))
	return out.Simplify()
}
