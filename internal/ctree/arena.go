package ctree

import (
	"fmt"

	"contango/internal/geom"
	"contango/internal/tech"
)

// Arena is the structure-of-arrays form of a clock tree: every per-node
// field lives in its own parallel slice indexed by the node's slot, and
// variable-length data (child lists, routes) lives in shared backing arrays
// addressed by (offset, length) spans. Slot indices are stable — a node
// keeps its slot for the arena's whole life, mutations never reshuffle
// existing slots, and FromTree assigns slot i to pointer-tree node ID i —
// so slots can be persisted, diffed and used as cache keys exactly like
// pointer-tree IDs. Dead slots (spliced-out or deleted nodes) stay
// allocated with their liveness bit cleared, mirroring the pointer tree's
// nil entries in its dense node table.
//
// Dirty is the arena's mutation journal: every structural mutator sets the
// bit of each slot whose parent edge it creates or rewrites, and a Detach
// sets the bit of the parent that lost the child. A parent whose child list
// changes by substitution or append is covered by the gained child's bit.
// eco.Apply reads the bitmap to scope its repair; the property tests in
// arena_property_test.go check it against a content diff.
//
// Construction (DME, legalization, buffer insertion, polarity) and ECO
// delta replay build and edit the arena, and the composite sweep extracts
// its candidates' netlists straight from it through the slot view both
// forms share (RootSlot, NumChildren, Child, Slot). The transient engine
// and the optimization passes run on the pointer tree, which ToTree
// materializes once construction is done. FromTree is the way back, for an
// ECO restore of a decoded tree.
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

// Len returns the slot count (the analogue of Tree.MaxID: dead slots
// included).
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

// ClearDirty resets the journal bitmap.
func (a *Arena) ClearDirty() { a.Dirty.Reset() }

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

// --- Structural mutators (same geometry arithmetic as the Tree methods,
// so mirrored edits produce bit-identical routes and snakes) ---

// AddSink creates a sink node under parent with a direct L-shaped route
// and the default wire width.
func (a *Arena) AddSink(parent int32, loc geom.Point, cap float64, name string) int32 {
	n := a.AddChildL(parent, Sink, loc)
	a.SinkCap[n] = cap
	a.Name[n] = name
	return n
}

// InsertOnEdge splits slot n's parent edge at route distance d from the
// parent and inserts a new node of the given kind there, dividing the
// snaking pro-rata exactly as Tree.InsertOnEdge does.
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

// FromTree flattens a pointer tree into a fresh arena. Node ID i lands in
// slot i (dead IDs become dead slots), child order and routes are
// preserved, and the journal starts clean — the converters carry the tree's
// structure, not its mutation history.
func FromTree(tr *Tree) *Arena {
	n := tr.MaxID()
	a := &Arena{
		Tech:     tr.Tech,
		SourceR:  tr.SourceR,
		Kind:     make([]Kind, n),
		Loc:      make([]geom.Point, n),
		Parent:   make([]int32, n),
		WidthIdx: make([]int32, n),
		Snake:    make([]float64, n),
		SinkCap:  make([]float64, n),
		Name:     make([]string, n),
		BufN:     make([]int32, n),
		BufType:  make([]tech.InverterType, n),
		ChildOff: make([]int32, n),
		ChildLen: make([]int32, n),
		RouteOff: make([]int32, n),
		RouteLen: make([]int32, n),
	}
	nPts, nKids := 0, 0
	for id := 0; id < n; id++ {
		if nd := tr.Node(id); nd != nil {
			nPts += len(nd.Route)
			nKids += len(nd.Children)
		}
	}
	a.RoutePts = make([]geom.Point, 0, nPts)
	a.ChildIdx = make([]int32, 0, nKids)
	for id := 0; id < n; id++ {
		nd := tr.Node(id)
		if nd == nil {
			a.Parent[id] = -1
			continue
		}
		i := int32(id)
		a.Alive.Set(id)
		a.Kind[i] = nd.Kind
		a.Loc[i] = nd.Loc
		a.WidthIdx[i] = int32(nd.WidthIdx)
		a.Snake[i] = nd.Snake
		a.SinkCap[i] = nd.SinkCap
		a.Name[i] = nd.Name
		if nd.Buf != nil {
			a.BufN[i] = int32(nd.Buf.N)
			a.BufType[i] = nd.Buf.Type
		}
		if nd.Parent != nil {
			a.Parent[i] = int32(nd.Parent.ID)
		} else {
			a.Parent[i] = -1
		}
		a.RouteOff[i] = int32(len(a.RoutePts))
		a.RouteLen[i] = int32(len(nd.Route))
		a.RoutePts = append(a.RoutePts, nd.Route...)
		a.ChildOff[i] = int32(len(a.ChildIdx))
		a.ChildLen[i] = int32(len(nd.Children))
		for _, c := range nd.Children {
			a.ChildIdx = append(a.ChildIdx, int32(c.ID))
		}
		if nd.Kind == Source {
			a.root = i
		}
	}
	return a
}

// ToTree rebuilds a pointer tree from the arena — the exact inverse of
// FromTree: slot i becomes node ID i, with copied routes and child order.
// The result is validated through Restore, so a structurally damaged arena
// (dangling spans, orphan slots) is an error rather than a corrupt tree.
func (a *Arena) ToTree() (*Tree, error) {
	n := a.Len()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		if !a.Alive.Test(i) {
			continue
		}
		s := int32(i)
		nd := &Node{
			ID:       i,
			Kind:     a.Kind[s],
			Loc:      a.Loc[s],
			WidthIdx: int(a.WidthIdx[s]),
			Snake:    a.Snake[s],
			SinkCap:  a.SinkCap[s],
			Name:     a.Name[s],
		}
		if rl := a.RouteLen[s]; rl > 0 {
			nd.Route = append(geom.Polyline(nil), a.Route(s)...)
		}
		if a.BufN[s] > 0 {
			nd.Buf = &tech.Composite{Type: a.BufType[s], N: int(a.BufN[s])}
		}
		nodes[i] = nd
	}
	for i := 0; i < n; i++ {
		nd := nodes[i]
		if nd == nil {
			continue
		}
		s := int32(i)
		if p := a.Parent[s]; p >= 0 {
			if int(p) >= n || nodes[p] == nil {
				return nil, fmt.Errorf("ctree: arena slot %d has dangling parent %d", i, p)
			}
			nd.Parent = nodes[p]
		}
		if kids := a.Children(s); len(kids) > 0 {
			nd.Children = make([]*Node, len(kids))
			for j, c := range kids {
				if int(c) >= n || nodes[c] == nil {
					return nil, fmt.Errorf("ctree: arena slot %d has dangling child %d", i, c)
				}
				nd.Children[j] = nodes[c]
			}
		}
	}
	return Restore(a.Tech, a.SourceR, nodes)
}
