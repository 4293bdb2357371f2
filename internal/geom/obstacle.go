package geom

import "sort"

// Obstacle is a rectangular placement blockage (a pre-designed block such as
// a CPU, RAM or DSP macro). Wires may route over an obstacle, but buffers may
// not be placed on it.
type Obstacle struct {
	Rect Rect
	Name string
}

// Compound is a maximal group of mutually abutting or overlapping obstacles.
// Abutting obstacles leave no room for a buffer between them, so the paper
// (Section IV-A) treats them as a single compound obstacle. BBox is the
// bounding box of all members.
type Compound struct {
	Members []int // indices into the owning ObstacleSet
	BBox    Rect
}

// ObstacleSet holds all obstacles of a benchmark and their compound grouping.
type ObstacleSet struct {
	Obstacles  []Obstacle
	Compounds  []Compound
	compoundOf []int // obstacle index -> compound index
}

// NewObstacleSet groups the given obstacles into compounds (union-find over
// the "intersects or abuts" relation) and returns the resulting set.
func NewObstacleSet(obs []Obstacle) *ObstacleSet {
	s := &ObstacleSet{Obstacles: append([]Obstacle(nil), obs...)}
	n := len(s.Obstacles)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Intersects is boundary-inclusive, so abutting rectangles
			// (sharing an edge) are merged, per the paper.
			if s.Obstacles[i].Rect.Intersects(s.Obstacles[j].Rect) {
				union(i, j)
			}
		}
	}
	s.compoundOf = make([]int, n)
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for ci, r := range roots {
		members := groups[r]
		sort.Ints(members)
		bbox := s.Obstacles[members[0]].Rect
		for _, m := range members[1:] {
			bbox = bbox.Union(s.Obstacles[m].Rect)
		}
		s.Compounds = append(s.Compounds, Compound{Members: members, BBox: bbox})
		for _, m := range members {
			s.compoundOf[m] = ci
		}
	}
	return s
}

// Len returns the number of individual obstacles.
func (s *ObstacleSet) Len() int { return len(s.Obstacles) }

// BlocksPoint reports whether a buffer placed at p would sit strictly inside
// some obstacle. Points on obstacle boundaries are legal buffer sites.
func (s *ObstacleSet) BlocksPoint(p Point) bool {
	for i := range s.Obstacles {
		if s.Obstacles[i].Rect.ContainsStrict(p) {
			return true
		}
	}
	return false
}

// CompoundAt returns the index of the compound whose member contains p
// strictly, or -1 when p is not inside any obstacle.
func (s *ObstacleSet) CompoundAt(p Point) int {
	for i := range s.Obstacles {
		if s.Obstacles[i].Rect.ContainsStrict(p) {
			return s.compoundOf[i]
		}
	}
	return -1
}

// SegmentCrossesAny reports whether the axis-parallel segment a-b crosses the
// interior of any obstacle.
func (s *ObstacleSet) SegmentCrossesAny(a, b Point) bool {
	for i := range s.Obstacles {
		if s.Obstacles[i].Rect.SegmentIntersects(a, b) {
			return true
		}
	}
	return false
}

// ContourMargin is how far outside a compound's bounding box its detour
// contour runs, so that buffers on the contour are strictly off the
// obstacle (µm).
const ContourMargin = 10.0

// Contour returns the detour ring for compound ci: the bounding box of the
// compound inflated by ContourMargin, as a closed counter-clockwise polyline
// (first point repeated at the end).
//
// The paper detours along the obstacle contour; for compounds of abutting
// rectangles the exact rectilinear union contour and its bounding box are
// interchangeable for the algorithm (both are closed rings strictly outside
// the blockage), and the bounding box keeps the ring convex so that distances
// along it are easy to reason about. The slight wirelength overestimate is
// compensated by the downstream electrical correction, exactly as the paper
// compensates for detour-induced skew.
func (s *ObstacleSet) Contour(ci int) Polyline {
	r := s.Compounds[ci].BBox.Inflate(ContourMargin)
	c := r.Corners()
	return Polyline{c[0], c[1], c[2], c[3], c[0]}
}

// Clip constrains every contour to the die area; contours sticking out of the
// die are clamped to its boundary (obstacles abutting the die periphery).
func ClipRing(ring Polyline, die Rect) Polyline {
	out := make(Polyline, len(ring))
	for i, p := range ring {
		out[i] = p.Clamp(die)
	}
	return out.Simplify()
}
