package ctree

import (
	"fmt"

	"contango/internal/geom"
	"contango/internal/tech"
)

// Bulk-construction API. The construction passes (DME merging, legalization,
// buffer insertion, polarity correction) build straight into the arena: an
// arena is created empty with capacity reserved up front from the
// benchmark's sink count, nodes are appended through the same mutators ECO
// delta replay uses, and the shared span arrays (ChildIdx,
// RoutePts) grow append-only — each child list and route is written once,
// at the tail, instead of being grown per node. Slot indices handed out
// during construction are final, so everything downstream — dirty
// journals, persisted artifacts, cache signatures — can key on them.

// BuildHints sizes an arena for bulk construction. Zero fields mean "no
// hint"; construction still works, it just pays append-doubling.
type BuildHints struct {
	// Nodes is the expected final slot count.
	Nodes int
	// RoutePts is the expected total number of route points across all
	// edges.
	RoutePts int
	// Children is the expected total number of child references.
	Children int
}

// HintsForSinks derives bulk-construction hints from a sink count: a binary
// DME merge tree has 2n−1 vertices plus the source, balanced buffering adds
// roughly one buffer per three merge nodes, and routes are L-shapes (≤3
// points). The child-index hint carries 2× slack because a binary parent's
// second child arrives only after its first child's subtree was
// materialized, relocating the one-entry span to the tail exactly once
// (Compact reclaims that garbage after construction). The constants are
// deliberately a little generous so a from-scratch synthesis of a
// benchmark's Stats().Sinks almost never reallocates the backing arrays.
func HintsForSinks(n int) BuildHints {
	if n <= 0 {
		return BuildHints{Nodes: 8, RoutePts: 16, Children: 16}
	}
	nodes := 2*n + n/2 + 16
	return BuildHints{
		Nodes:    nodes,
		RoutePts: 3 * nodes,
		Children: 2*nodes + 8,
	}
}

// NewArena creates an arena holding a single Source slot at loc, driven by
// a source with the given output resistance (kΩ), with capacity reserved
// per the hints. The returned arena is ready for AddChildL/AddSink
// construction.
func NewArena(t *tech.Tech, loc geom.Point, sourceR float64, h BuildHints) *Arena {
	a := &Arena{Tech: t, SourceR: sourceR}
	a.Reserve(h)
	root := a.newSlot(Source, loc)
	a.root = root
	return a
}

// SetRoot names slot i the root. A decoder that fills the columns of a
// persisted arena directly sets its Source slot with it; Validate then
// checks the whole arena.
func (a *Arena) SetRoot(i int32) { a.root = i }

// Reserve grows the arena's backing capacity so that at least h.Nodes total
// slots, h.RoutePts route points and h.Children child references fit
// without reallocation. It never shrinks, never moves live data visibly
// (spans are offsets, not pointers) and is safe at any point between
// mutations.
func (a *Arena) Reserve(h BuildHints) {
	if n := h.Nodes; n > cap(a.Kind) {
		a.Kind = growCap(a.Kind, n)
		a.Loc = growCap(a.Loc, n)
		a.Parent = growCap(a.Parent, n)
		a.WidthIdx = growCap(a.WidthIdx, n)
		a.Snake = growCap(a.Snake, n)
		a.SinkCap = growCap(a.SinkCap, n)
		a.Name = growCap(a.Name, n)
		a.BufN = growCap(a.BufN, n)
		a.BufType = growCap(a.BufType, n)
		a.ChildOff = growCap(a.ChildOff, n)
		a.ChildLen = growCap(a.ChildLen, n)
		a.RouteOff = growCap(a.RouteOff, n)
		a.RouteLen = growCap(a.RouteLen, n)
	}
	if n := h.RoutePts; n > cap(a.RoutePts) {
		a.RoutePts = growCap(a.RoutePts, n)
	}
	if n := h.Children; n > cap(a.ChildIdx) {
		a.ChildIdx = growCap(a.ChildIdx, n)
	}
}

// growCap returns s with capacity at least n, preserving contents.
func growCap[T any](s []T, n int) []T {
	out := make([]T, len(s), n)
	copy(out, s)
	return out
}

// SetBuf installs a composite on slot i (BufN parallel inverters of
// BufType); a zero composite clears it. It does not journal.
func (a *Arena) SetBuf(i int32, comp tech.Composite) {
	a.BufN[i] = int32(comp.N)
	a.BufType[i] = comp.Type
}

// Buf returns slot i's composite; ok is false on non-buffer slots.
func (a *Arena) Buf(i int32) (tech.Composite, bool) {
	if a.BufN[i] <= 0 {
		return tech.Composite{}, false
	}
	return tech.Composite{Type: a.BufType[i], N: int(a.BufN[i])}, true
}

// ReplaceRoute overwrites slot i's parent-edge route, appending the new
// points at the tail of the shared array. It does not journal. Compact
// reclaims the abandoned span.
func (a *Arena) ReplaceRoute(i int32, pl geom.Polyline) {
	a.setRoute(i, pl)
}

// AddChildL creates a node of the given kind under parent at loc, writing
// the horizontal-first L-shaped route directly into the shared point array
// (no intermediate polyline allocation). The route is point-for-point what
// geom.LShape(parent, loc)[0] produces.
func (a *Arena) AddChildL(parent int32, kind Kind, loc geom.Point) int32 {
	n := a.newSlot(kind, loc)
	a.Parent[n] = parent
	from := a.Loc[parent]
	a.RouteOff[n] = int32(len(a.RoutePts))
	if from.X == loc.X || from.Y == loc.Y {
		a.RoutePts = append(a.RoutePts, from, loc)
		a.RouteLen[n] = 2
	} else {
		a.RoutePts = append(a.RoutePts, from, geom.Point{X: loc.X, Y: from.Y}, loc)
		a.RouteLen[n] = 3
	}
	a.appendChild(parent, n)
	a.touch(n)
	return n
}

// PreOrder visits every slot reachable from the root, parents before
// children, each child list in order. The aggregate accessors below sum in
// this order; persisted results pin their floating-point sums to it.
func (a *Arena) PreOrder(visit func(i int32)) {
	var rec func(int32)
	rec = func(i int32) {
		visit(i)
		for _, c := range a.Children(i) {
			rec(c)
		}
	}
	rec(a.root)
}

// PostOrder visits every slot reachable from the root, children before
// parents.
func (a *Arena) PostOrder(visit func(i int32)) {
	var rec func(int32)
	rec = func(i int32) {
		for _, c := range a.Children(i) {
			rec(c)
		}
		visit(i)
	}
	rec(a.root)
}

// Sinks returns all sink slots in pre-order.
func (a *Arena) Sinks() []int32 {
	var out []int32
	a.PreOrder(func(i int32) {
		if a.Kind[i] == Sink {
			out = append(out, i)
		}
	})
	return out
}

// EdgeRes returns the wire resistance (kΩ) of slot i's parent edge.
func (a *Arena) EdgeRes(i int32) float64 {
	if a.Parent[i] < 0 {
		return 0
	}
	return a.Tech.Wires[a.WidthIdx[i]].RPerUm * a.EdgeLen(i)
}

// EdgeCap returns the wire capacitance (fF) of slot i's parent edge.
func (a *Arena) EdgeCap(i int32) float64 {
	if a.Parent[i] < 0 {
		return 0
	}
	return a.Tech.Wires[a.WidthIdx[i]].CPerUm * a.EdgeLen(i)
}

// Wirelength returns the total routed wirelength including snaking (µm),
// summed in pre-order.
func (a *Arena) Wirelength() float64 {
	var wl float64
	a.PreOrder(func(i int32) { wl += a.EdgeLen(i) })
	return wl
}

// WireCap returns the total wire capacitance (fF), summed in pre-order.
func (a *Arena) WireCap() float64 {
	var c float64
	a.PreOrder(func(i int32) { c += a.EdgeCap(i) })
	return c
}

// BufferCap returns the total buffer capacitance cost (fF), summed in
// pre-order.
func (a *Arena) BufferCap() float64 {
	var c float64
	a.PreOrder(func(i int32) {
		if a.BufN[i] > 0 {
			comp := tech.Composite{Type: a.BufType[i], N: int(a.BufN[i])}
			c += comp.CapCost()
		}
	})
	return c
}

// TotalCap is the capacitance charged against the benchmark's limit: wire
// plus buffers. Sink pin capacitance is part of the design, not the clock
// network, and is excluded (as in the contest).
func (a *Arena) TotalCap() float64 { return a.WireCap() + a.BufferCap() }

// LoadCap returns the capacitance (fF) a driver sees looking into slot i's
// parent edge: the edge's wire capacitance plus i's load. Buffer inputs
// shield everything below them; sinks contribute their pin capacitance;
// other slots recurse into their children.
func (a *Arena) LoadCap(i int32) float64 {
	c := a.EdgeCap(i)
	switch a.Kind[i] {
	case Buffer:
		comp := tech.Composite{Type: a.BufType[i], N: int(a.BufN[i])}
		return c + comp.Cin()
	case Sink:
		return c + a.SinkCap[i]
	}
	for _, ch := range a.Children(i) {
		c += a.LoadCap(ch)
	}
	return c
}

// Clone returns a deep copy of the arena: all per-slot arrays, both span
// arrays, liveness and dirty bitmaps.
func (a *Arena) Clone() *Arena {
	cp := new(Arena)
	cp.CopyFrom(a)
	return cp
}

// CopyFrom makes a a deep copy of src, reusing a's backing arrays where
// they are large enough. The copy shares only the immutable Tech with src.
// Every field ends up equal to src's, span offsets included: appendChild
// grows a span in place only at the tail of ChildIdx, so a copy with
// different offsets would build a different arena from the same edits.
// The composite sweep recycles one work arena per worker through it.
func (a *Arena) CopyFrom(src *Arena) {
	a.Tech, a.SourceR, a.root = src.Tech, src.SourceR, src.root
	a.Kind = append(a.Kind[:0], src.Kind...)
	a.Loc = append(a.Loc[:0], src.Loc...)
	a.Parent = append(a.Parent[:0], src.Parent...)
	a.WidthIdx = append(a.WidthIdx[:0], src.WidthIdx...)
	a.Snake = append(a.Snake[:0], src.Snake...)
	a.SinkCap = append(a.SinkCap[:0], src.SinkCap...)
	a.Name = append(a.Name[:0], src.Name...)
	a.BufN = append(a.BufN[:0], src.BufN...)
	a.BufType = append(a.BufType[:0], src.BufType...)
	a.ChildOff = append(a.ChildOff[:0], src.ChildOff...)
	a.ChildLen = append(a.ChildLen[:0], src.ChildLen...)
	a.ChildIdx = append(a.ChildIdx[:0], src.ChildIdx...)
	a.RouteOff = append(a.RouteOff[:0], src.RouteOff...)
	a.RouteLen = append(a.RouteLen[:0], src.RouteLen...)
	a.RoutePts = append(a.RoutePts[:0], src.RoutePts...)
	a.Alive = append(a.Alive[:0], src.Alive...)
	a.Dirty = append(a.Dirty[:0], src.Dirty...)
}

// Validate checks the arena's structural invariants and returns the first
// violation: exactly one live Source (the root), parent/child spans consistent, routes
// rectilinear and connecting parent to node, every kind known, sinks
// childless, buffers carrying at least one inverter, every live slot
// reachable, no cycles.
func (a *Arena) Validate() error {
	n := a.Len()
	if n == 0 || !a.Alive.Test(int(a.root)) || a.Kind[a.root] != Source || a.Parent[a.root] >= 0 {
		return fmt.Errorf("ctree: arena: bad root")
	}
	seen := make(Bitset, (n+63)/64)
	var err error
	var rec func(i int32, depth int)
	rec = func(i int32, depth int) {
		if err != nil {
			return
		}
		if depth > n {
			err = fmt.Errorf("ctree: arena: cycle detected at slot %d", i)
			return
		}
		if seen.Test(int(i)) {
			err = fmt.Errorf("ctree: arena: slot %d reached twice", i)
			return
		}
		seen.Set(int(i))
		if !a.Alive.Test(int(i)) {
			err = fmt.Errorf("ctree: arena: dead slot %d reachable", i)
			return
		}
		if p := a.Parent[i]; p >= 0 {
			route := a.Route(i)
			if len(route) < 2 {
				err = fmt.Errorf("ctree: arena: slot %d has no route", i)
				return
			}
			if !route[0].Eq(a.Loc[p], 1e-6) {
				err = fmt.Errorf("ctree: arena: slot %d route does not start at parent (%v vs %v)",
					i, route[0], a.Loc[p])
				return
			}
			if !route[len(route)-1].Eq(a.Loc[i], 1e-6) {
				err = fmt.Errorf("ctree: arena: slot %d route does not end at node (%v vs %v)",
					i, route[len(route)-1], a.Loc[i])
				return
			}
			for k := 1; k < len(route); k++ {
				if route[k-1].X != route[k].X && route[k-1].Y != route[k].Y {
					err = fmt.Errorf("ctree: arena: slot %d route segment %d not rectilinear", i, k)
					return
				}
			}
			if w := a.WidthIdx[i]; w < 0 || int(w) >= len(a.Tech.Wires) {
				err = fmt.Errorf("ctree: arena: slot %d bad width index %d", i, w)
				return
			}
			if a.Snake[i] < 0 {
				err = fmt.Errorf("ctree: arena: slot %d negative snake", i)
				return
			}
		}
		switch a.Kind[i] {
		case Sink:
			if a.ChildLen[i] != 0 {
				err = fmt.Errorf("ctree: arena: sink %d has children", i)
				return
			}
		case Buffer:
			if a.BufN[i] < 1 {
				err = fmt.Errorf("ctree: arena: buffer %d missing composite", i)
				return
			}
		case Source:
			if i != a.root {
				err = fmt.Errorf("ctree: arena: extra source %d", i)
				return
			}
		case Internal:
		default:
			err = fmt.Errorf("ctree: arena: slot %d has unknown kind %d", i, a.Kind[i])
			return
		}
		for _, c := range a.Children(i) {
			if c < 0 || int(c) >= n || a.Parent[c] != i {
				err = fmt.Errorf("ctree: arena: child %d of %d has wrong parent", c, i)
				return
			}
			rec(c, depth+1)
		}
	}
	rec(a.root, 0)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if a.Alive.Test(i) && !seen.Test(i) {
			return fmt.Errorf("ctree: arena: slot %d unreachable from root", i)
		}
	}
	return nil
}
