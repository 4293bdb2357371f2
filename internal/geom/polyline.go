package geom

// Polyline is an ordered list of points describing a rectilinear wire route.
// Consecutive points are expected to differ in at most one coordinate; the
// helper Rectify inserts bend points when they do not.
type Polyline []Point

// Length returns the total Manhattan length of the polyline.
func (pl Polyline) Length() float64 {
	var l float64
	for i := 1; i < len(pl); i++ {
		l += pl[i-1].Manhattan(pl[i])
	}
	return l
}

// Rectify returns a copy of pl where every diagonal hop has been replaced by
// an L-shape (horizontal then vertical). Existing axis-parallel segments are
// kept as-is and zero-length hops are dropped.
func (pl Polyline) Rectify() Polyline {
	if len(pl) == 0 {
		return nil
	}
	// Worst case inserts one bend per hop: allocate once.
	out := make(Polyline, 1, 2*len(pl)-1)
	out[0] = pl[0]
	for i := 1; i < len(pl); i++ {
		prev := out[len(out)-1]
		cur := pl[i]
		if prev.X != cur.X && prev.Y != cur.Y {
			out = append(out, Point{cur.X, prev.Y})
		}
		if !cur.Eq(out[len(out)-1], 0) {
			out = append(out, cur)
		}
	}
	return out
}

// Simplify removes collinear interior points and zero-length segments.
func (pl Polyline) Simplify() Polyline {
	if len(pl) < 3 {
		return pl
	}
	// Never grows past the input: allocate once.
	out := make(Polyline, 1, len(pl))
	out[0] = pl[0]
	for i := 1; i < len(pl); i++ {
		p := pl[i]
		last := out[len(out)-1]
		if p.Eq(last, 0) {
			continue
		}
		if len(out) >= 2 {
			prev := out[len(out)-2]
			if (prev.X == last.X && last.X == p.X) || (prev.Y == last.Y && last.Y == p.Y) {
				out[len(out)-1] = p
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

// Reverse returns the polyline traversed in the opposite direction.
func (pl Polyline) Reverse() Polyline {
	out := make(Polyline, len(pl))
	for i, p := range pl {
		out[len(pl)-1-i] = p
	}
	return out
}

// At returns the point a Manhattan distance d along the polyline from its
// first point. d is clamped to [0, Length].
func (pl Polyline) At(d float64) Point {
	if len(pl) == 0 {
		return Point{}
	}
	if d <= 0 {
		return pl[0]
	}
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Manhattan(pl[i])
		if d <= seg && seg > 0 {
			return pl[i-1].Lerp(pl[i], d/seg)
		}
		d -= seg
	}
	return pl[len(pl)-1]
}

// Split cuts the polyline at Manhattan distance d from its start and returns
// the two halves; the cut point is duplicated as the last point of the first
// half and the first point of the second.
func (pl Polyline) Split(d float64) (Polyline, Polyline) {
	if len(pl) < 2 {
		return pl, nil
	}
	if d <= 0 {
		return Polyline{pl[0], pl[0]}, append(Polyline(nil), pl...)
	}
	acc := 0.0
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Manhattan(pl[i])
		if acc+seg >= d && seg > 0 {
			cut := pl[i-1].Lerp(pl[i], (d-acc)/seg)
			first := append(append(Polyline(nil), pl[:i]...), cut)
			second := append(Polyline{cut}, pl[i:]...)
			return first.Simplify(), second.Simplify()
		}
		acc += seg
	}
	end := pl[len(pl)-1]
	return append(Polyline(nil), pl...), Polyline{end, end}
}

// LShape returns the two candidate single-bend routes between a and b:
// horizontal-first and vertical-first. When a and b are axis-aligned the two
// candidates coincide and contain no bend.
func LShape(a, b Point) [2]Polyline {
	if a.X == b.X || a.Y == b.Y {
		seg := Polyline{a, b}
		return [2]Polyline{seg, seg}
	}
	return [2]Polyline{
		{a, Point{b.X, a.Y}, b}, // horizontal first
		{a, Point{a.X, b.Y}, b}, // vertical first
	}
}

// OverlapWithRect returns the total length of pl running strictly inside r.
func (pl Polyline) OverlapWithRect(r Rect) float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		a, b := pl[i-1], pl[i]
		if a.X == b.X { // vertical
			if a.X <= r.MinX || a.X >= r.MaxX {
				continue
			}
			lo := maxf(minf(a.Y, b.Y), r.MinY)
			hi := minf(maxf(a.Y, b.Y), r.MaxY)
			if hi > lo {
				total += hi - lo
			}
		} else if a.Y == b.Y { // horizontal
			if a.Y <= r.MinY || a.Y >= r.MaxY {
				continue
			}
			lo := maxf(minf(a.X, b.X), r.MinX)
			hi := minf(maxf(a.X, b.X), r.MaxX)
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
