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
// during construction are final: they match the node IDs the equivalent
// pointer-tree construction would have assigned (the arena-construction
// property tests pin this), so everything downstream — dirty journals,
// persisted artifacts, cache signatures — is unaffected by which path built
// the tree.

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

// NewArena creates an arena holding a single Source slot at loc, with
// capacity reserved per the hints. It is the arena analogue of New: the
// returned arena is ready for AddChildL/AddSink construction.
func NewArena(t *tech.Tech, loc geom.Point, sourceR float64, h BuildHints) *Arena {
	a := &Arena{Tech: t, SourceR: sourceR}
	a.Reserve(h)
	root := a.newSlot(Source, loc)
	a.root = root
	return a
}

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
// BufType). Like assigning Node.Buf during pointer construction it does not
// journal.
func (a *Arena) SetBuf(i int32, comp tech.Composite) {
	a.BufN[i] = int32(comp.N)
	a.BufType[i] = comp.Type
}

// Buf returns slot i's composite; ok is false on non-buffer slots.
func (a *Arena) Buf(i int32) (tech.Composite, bool) {
	if a.BufN[i] == 0 {
		return tech.Composite{}, false
	}
	return tech.Composite{Type: a.BufType[i], N: int(a.BufN[i])}, true
}

// ReplaceRoute overwrites slot i's parent-edge route, appending the new
// points at the tail of the shared array. It mirrors the pointer tree's
// construction-phase `n.Route = pl` assignment and, like it, does not
// journal. Compact reclaims the abandoned span.
func (a *Arena) ReplaceRoute(i int32, pl geom.Polyline) {
	a.setRoute(i, pl)
}

// AddChildL creates a node of the given kind under parent at loc, writing
// the horizontal-first L-shaped route directly into the shared point array
// (no intermediate polyline allocation). The route is point-for-point what
// geom.LShape(parent, loc)[0] produces, the route Tree.AddChild gives the
// mirrored pointer node.
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
// children, in the same order Tree.PreOrder visits the equivalent pointer
// tree — aggregate accessors below depend on that order so their
// floating-point sums are bit-identical across representations.
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
// summed in pre-order exactly like Tree.Wirelength.
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

// TotalCap is wire plus buffer capacitance, matching Tree.TotalCap term
// order.
func (a *Arena) TotalCap() float64 { return a.WireCap() + a.BufferCap() }

// LoadCap returns the capacitance (fF) a driver sees looking into slot i's
// parent edge, with the same shielding rules and accumulation order as
// Tree.LoadCap.
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
// arrays, liveness and dirty bitmaps. Clones share only the immutable Tech,
// so a composite sweep can fan out candidate insertions over cheap
// flat-copy clones instead of per-node pointer clones.
func (a *Arena) Clone() *Arena {
	cp := &Arena{Tech: a.Tech, SourceR: a.SourceR, root: a.root}
	cp.Kind = append([]Kind(nil), a.Kind...)
	cp.Loc = append([]geom.Point(nil), a.Loc...)
	cp.Parent = append([]int32(nil), a.Parent...)
	cp.WidthIdx = append([]int32(nil), a.WidthIdx...)
	cp.Snake = append([]float64(nil), a.Snake...)
	cp.SinkCap = append([]float64(nil), a.SinkCap...)
	cp.Name = append([]string(nil), a.Name...)
	cp.BufN = append([]int32(nil), a.BufN...)
	cp.BufType = append([]tech.InverterType(nil), a.BufType...)
	cp.ChildOff = append([]int32(nil), a.ChildOff...)
	cp.ChildLen = append([]int32(nil), a.ChildLen...)
	cp.ChildIdx = append([]int32(nil), a.ChildIdx...)
	cp.RouteOff = append([]int32(nil), a.RouteOff...)
	cp.RouteLen = append([]int32(nil), a.RouteLen...)
	cp.RoutePts = append([]geom.Point(nil), a.RoutePts...)
	cp.Alive = append(Bitset(nil), a.Alive...)
	cp.Dirty = append(Bitset(nil), a.Dirty...)
	return cp
}

// Validate checks the arena's structural invariants directly on the SoA
// form — the same conditions Tree.Validate enforces on the pointer form:
// exactly one live Source (the root), parent/child spans consistent, routes
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
