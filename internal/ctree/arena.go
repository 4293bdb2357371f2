package ctree

import (
	"contango/internal/geom"
	"contango/internal/tech"
)

// Arena is the clock tree: the one form every pass, evaluator and encoder
// reads and writes. Every per-node field lives in its own parallel slice
// indexed by the node's slot, and variable-length data (child lists,
// routes) lives in shared backing arrays addressed by (offset, length)
// spans. Slot indices are stable — a node keeps its slot for the arena's
// whole life and mutations never reshuffle existing slots — so slots can be
// persisted, diffed and used as cache keys: the result codec writes slot i
// as node i, and evaluation results are keyed by slot. Dead slots
// (spliced-out or deleted nodes) stay allocated with their liveness bit
// cleared.
//
// Dirty is the arena's mutation journal: every structural mutator sets the
// bit of each slot whose parent edge it creates or rewrites, and a Detach
// sets the bit of the parent that lost the child. A parent whose child list
// changes by substitution or append is covered by the gained child's bit.
// eco.Apply reads the bitmap to scope its repair; the property tests in
// arena_property_test.go check it against a content diff.
//
// Outside this package the arena travels inside a Tree handle, the type the
// end-to-end benchmark module (benchmark/) names; Tree.Arena reaches it.
type Arena struct {
	Tech    *tech.Tech
	SourceR float64

	// Per-slot parallel arrays, all len == Len().
	Kind     []Kind
	Loc      []geom.Point
	Parent   []int32 // parent slot; -1 on the root, dead and detached slots
	WidthIdx []int32
	Snake    []float64
	SinkCap  []float64
	Name     []string

	// Buffer composites, SoA: BufN > 0 marks a node that carries a
	// composite of BufN parallel inverters of type BufType.
	BufN    []int32
	BufType []tech.InverterType

	// Child spans: slot i's children are ChildIdx[ChildOff[i] : ChildOff[i]+ChildLen[i]].
	// Edits that grow a list relocate the span to the tail of ChildIdx;
	// Compact squeezes the garbage back out.
	ChildOff []int32
	ChildLen []int32
	ChildIdx []int32

	// Route spans: slot i's parent-edge route is
	// RoutePts[RouteOff[i] : RouteOff[i]+RouteLen[i]].
	RouteOff []int32
	RouteLen []int32
	RoutePts []geom.Point

	// Alive marks live slots; Dirty is the mutation journal bitmap.
	Alive Bitset
	Dirty Bitset

	root int32
}

// Len returns the slot count, dead slots included.
func (a *Arena) Len() int { return len(a.Kind) }

// Root returns the root (Source) slot.
func (a *Arena) Root() int32 { return a.root }

// NumNodes returns the number of live slots.
func (a *Arena) NumNodes() int { return a.Alive.Count() }

// Children returns slot i's child slots as a view into the shared index
// array; callers must not hold it across structural mutations.
func (a *Arena) Children(i int32) []int32 {
	off, ln := a.ChildOff[i], a.ChildLen[i]
	return a.ChildIdx[off : off+ln : off+ln]
}

// Route returns slot i's parent-edge route as a view into the shared point
// array; callers must not hold it across structural mutations.
func (a *Arena) Route(i int32) geom.Polyline {
	off, ln := a.RouteOff[i], a.RouteLen[i]
	return geom.Polyline(a.RoutePts[off : off+ln : off+ln])
}

// EdgeLen returns the electrical length of slot i's parent edge in µm.
func (a *Arena) EdgeLen(i int32) float64 {
	if a.Parent[i] < 0 {
		return 0
	}
	return a.Route(i).Length() + a.Snake[i]
}

// DirtyIDs returns the journaled slot indices in ascending order (nil when
// nothing is dirty). Indices of since-deleted slots may be included.
func (a *Arena) DirtyIDs() []int {
	var out []int
	a.Dirty.ForEach(func(i int) { out = append(out, i) })
	return out
}

func (a *Arena) touch(i int32) { a.Dirty.Set(int(i)) }

// newSlot appends one dead-route slot and returns its index.
func (a *Arena) newSlot(kind Kind, loc geom.Point) int32 {
	i := int32(len(a.Kind))
	a.Kind = append(a.Kind, kind)
	a.Loc = append(a.Loc, loc)
	a.Parent = append(a.Parent, -1)
	a.WidthIdx = append(a.WidthIdx, 0)
	a.Snake = append(a.Snake, 0)
	a.SinkCap = append(a.SinkCap, 0)
	a.Name = append(a.Name, "")
	a.BufN = append(a.BufN, 0)
	a.BufType = append(a.BufType, tech.InverterType{})
	a.ChildOff = append(a.ChildOff, 0)
	a.ChildLen = append(a.ChildLen, 0)
	a.RouteOff = append(a.RouteOff, 0)
	a.RouteLen = append(a.RouteLen, 0)
	a.Alive.Set(int(i))
	return i
}

// setRoute stores pl as slot i's route at the tail of the point array.
func (a *Arena) setRoute(i int32, pl geom.Polyline) {
	a.RouteOff[i] = int32(len(a.RoutePts))
	a.RouteLen[i] = int32(len(pl))
	a.RoutePts = append(a.RoutePts, pl...)
}

// setChildren stores list as slot i's child span at the tail of the index
// array.
func (a *Arena) setChildren(i int32, list []int32) {
	a.ChildOff[i] = int32(len(a.ChildIdx))
	a.ChildLen[i] = int32(len(list))
	a.ChildIdx = append(a.ChildIdx, list...)
}

// appendChild adds c to slot i's child list, relocating the span to the
// tail when it cannot grow in place.
func (a *Arena) appendChild(i, c int32) {
	off, ln := a.ChildOff[i], a.ChildLen[i]
	if int(off+ln) == len(a.ChildIdx) {
		a.ChildIdx = append(a.ChildIdx, c)
		a.ChildLen[i]++
		return
	}
	a.ChildOff[i] = int32(len(a.ChildIdx))
	a.ChildIdx = append(a.ChildIdx, a.ChildIdx[off:off+ln]...)
	a.ChildIdx = append(a.ChildIdx, c)
	a.ChildLen[i]++
}

// --- Structural mutators ---

// AddSink creates a sink node under parent with a direct L-shaped route
// and the default wire width.
func (a *Arena) AddSink(parent int32, loc geom.Point, cap float64, name string) int32 {
	n := a.AddChildL(parent, Sink, loc)
	a.SinkCap[n] = cap
	a.Name[n] = name
	return n
}

// InsertOnEdge splits slot n's parent edge at route distance d from the
// parent and inserts a new node of the given kind there. The new node
// inherits the edge's width; the snaking allowance is divided pro-rata
// between the two halves (snake is modeled as uniformly distributed extra
// length).
func (a *Arena) InsertOnEdge(n int32, d float64, kind Kind) int32 {
	parent := a.Parent[n]
	if parent < 0 {
		panic("ctree: InsertOnEdge on root")
	}
	route := append(geom.Polyline(nil), a.Route(n)...)
	upper, lower := route.Split(d)
	frac := 0.0
	if rl := route.Length(); rl > 0 {
		frac = d / rl
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
	}
	snakeUp := a.Snake[n] * frac
	a.Snake[n] -= snakeUp
	mid := a.newSlot(kind, upper[len(upper)-1])
	a.Parent[mid] = parent
	a.WidthIdx[mid] = a.WidthIdx[n]
	a.Snake[mid] = snakeUp
	a.setRoute(mid, upper)
	a.setChildren(mid, []int32{n})
	ch := a.Children(parent)
	for i, c := range ch {
		if c == n {
			ch[i] = mid
			break
		}
	}
	a.Parent[n] = mid
	a.setRoute(n, lower)
	a.touch(mid)
	a.touch(n)
	return mid
}

// SlideDegree2 moves slot n, which has exactly one child, along the
// corridor its parent edge and its child's edge form: newDist is the route
// distance from the (unchanged) parent. Used for buffer sliding — the
// corridor's length and total snaking are preserved, only the split point
// moves.
func (a *Arena) SlideDegree2(n int32, newDist float64) {
	if a.Parent[n] < 0 || a.ChildLen[n] != 1 {
		panic("ctree: SlideDegree2 needs a non-root node with one child")
	}
	child := a.Children(n)[0]
	joined := append(append(geom.Polyline(nil), a.Route(n)...), a.Route(child)...)
	joined = joined.Simplify()
	if len(joined) < 2 {
		// A fully zero-length corridor collapses to one point under
		// Simplify; keep the 2-point route invariant.
		joined = geom.Polyline{a.Loc[a.Parent[n]], a.Loc[child]}
	}
	totalSnake := a.Snake[n] + a.Snake[child]
	total := joined.Length()
	if newDist < 0 {
		newDist = 0
	}
	if newDist > total {
		newDist = total
	}
	upper, lower := joined.Split(newDist)
	a.setRoute(n, upper)
	a.Loc[n] = upper[len(upper)-1]
	a.setRoute(child, lower)
	if total > 0 {
		a.Snake[n] = totalSnake * newDist / total
	} else {
		a.Snake[n] = 0
	}
	a.Snake[child] = totalSnake - a.Snake[n]
	a.touch(n)
	a.touch(child)
}

// RemoveDegree2 splices out an Internal or Buffer slot with exactly one
// child, joining its parent edge with the child's edge.
func (a *Arena) RemoveDegree2(n int32) {
	if a.Parent[n] < 0 || a.ChildLen[n] != 1 || a.Kind[n] == Sink || a.Kind[n] == Source {
		panic("ctree: RemoveDegree2 needs a non-root, non-sink node with one child")
	}
	child := a.Children(n)[0]
	joined := append(append(geom.Polyline(nil), a.Route(n)...), a.Route(child)...)
	joined = joined.Simplify()
	if len(joined) < 2 {
		// Both edges were zero-length (stacked nodes), so Simplify collapsed
		// the join to a single point; every live edge keeps a 2-point route.
		joined = geom.Polyline{a.Loc[a.Parent[n]], a.Loc[child]}
	}
	a.setRoute(child, joined)
	a.Snake[child] += a.Snake[n]
	a.Parent[child] = a.Parent[n]
	ch := a.Children(a.Parent[n])
	for i, c := range ch {
		if c == n {
			ch[i] = child
			break
		}
	}
	a.Alive.Unset(int(n))
	a.Parent[n] = -1
	a.ChildLen[n] = 0
	a.touch(child)
}

// Detach removes n from its parent's child list, leaving the slot (and its
// subtree) orphaned but allocated.
func (a *Arena) Detach(n int32) {
	p := a.Parent[n]
	if p < 0 {
		panic("ctree: Detach on root")
	}
	ch := a.Children(p)
	for i, c := range ch {
		if c == n {
			copy(ch[i:], ch[i+1:])
			a.ChildLen[p]--
			break
		}
	}
	a.Parent[n] = -1
	a.touch(p)
}

// Attach re-homes a detached slot n under parent with the given route (nil
// means a direct L-shape).
func (a *Arena) Attach(n, parent int32, route geom.Polyline) {
	if a.Parent[n] >= 0 {
		panic("ctree: Attach on non-orphan")
	}
	if route == nil {
		route = geom.LShape(a.Loc[parent], a.Loc[n])[0]
	}
	a.Parent[n] = parent
	a.setRoute(n, route)
	a.appendChild(parent, n)
	a.touch(n)
}

// DeleteSubtree removes slot n and all its descendants.
func (a *Arena) DeleteSubtree(n int32) {
	if a.Parent[n] >= 0 {
		a.Detach(n) // journals the parent
	}
	var rec func(int32)
	rec = func(m int32) {
		for _, c := range a.Children(m) {
			rec(c)
		}
		a.Alive.Unset(int(m))
		a.ChildLen[m] = 0
		a.Parent[m] = -1
	}
	rec(n)
}

// Compact rewrites the child-index and route-point arrays into tight
// pre-order spans, dropping the garbage left behind by span relocations.
// Slot indices are untouched — only the shared backing arrays move. Live
// orphans (detached subtrees) keep their data; dead slots lose their spans.
func (a *Arena) Compact() {
	childIdx := make([]int32, 0, a.NumNodes())
	routePts := make([]geom.Point, 0, len(a.RoutePts))
	var visited Bitset
	var rec func(int32)
	rec = func(i int32) {
		visited.Set(int(i))
		route := a.Route(i)
		a.RouteOff[i] = int32(len(routePts))
		routePts = append(routePts, route...)
		kids := a.Children(i)
		off := int32(len(childIdx))
		childIdx = append(childIdx, kids...)
		a.ChildOff[i] = off
		for _, c := range kids {
			rec(c)
		}
	}
	rec(a.root)
	for i := range a.Kind {
		if visited.Test(i) {
			continue
		}
		if a.Alive.Test(i) && a.Parent[i] < 0 {
			rec(int32(i)) // detached orphan root
		}
	}
	for i := range a.Kind {
		if !a.Alive.Test(i) {
			a.ChildOff[i], a.ChildLen[i] = 0, 0
			a.RouteOff[i], a.RouteLen[i] = 0, 0
		}
	}
	a.ChildIdx = childIdx
	a.RoutePts = routePts
}
