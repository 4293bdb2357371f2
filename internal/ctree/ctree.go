// Package ctree defines the clock-tree data structure shared by every stage
// of the synthesizer: topology construction (DME), obstacle-avoiding
// rerouting, buffer insertion, polarity correction and the SPICE-driven
// optimization passes.
//
// A tree is a rooted collection of nodes. Every non-root node owns the edge
// that connects it to its parent: a rectilinear route, a wire-width index
// into the technology's wire table, and an optional snaking allowance (extra
// serpentine length used to slow fast paths down). Buffers (inverters) are
// nodes of kind Buffer placed on edges.
package ctree

import (
	"fmt"

	"contango/internal/geom"
	"contango/internal/tech"
)

// Kind classifies tree nodes.
type Kind uint8

const (
	// Source is the clock entry point; exactly one per tree (the root).
	Source Kind = iota
	// Internal is a Steiner/merge point with no device.
	Internal
	// Buffer is an inverting clock buffer (a composite inverter).
	Buffer
	// Sink is a clock endpoint (flip-flop clock pin).
	Sink
)

func (k Kind) String() string {
	switch k {
	case Source:
		return "source"
	case Internal:
		return "internal"
	case Buffer:
		return "buffer"
	case Sink:
		return "sink"
	}
	return "?"
}

// Node is one vertex of the clock tree. The fields Route, WidthIdx and Snake
// describe the edge from Parent to this node and are meaningless on the root.
type Node struct {
	ID       int
	Kind     Kind
	Loc      geom.Point
	Parent   *Node
	Children []*Node

	// Route is the rectilinear wire from Parent.Loc to Loc. A nil route on
	// a non-root node means a direct L-shape is implied and must be
	// materialized by the caller; the constructor helpers always set it.
	Route geom.Polyline
	// WidthIdx selects the wire type (index into Tech.Wires) of this edge.
	WidthIdx int
	// Snake is extra serpentine wirelength (µm) added to this edge to slow
	// it down; it contributes R and C but no displacement.
	Snake float64

	// Buf is the composite inverter driving this node's subtree; non-nil
	// exactly when Kind == Buffer. Clock buffers invert polarity.
	Buf *tech.Composite

	// SinkCap is the load capacitance (fF) when Kind == Sink.
	SinkCap float64
	Name    string
}

// EdgeLen returns the electrical length of the node's parent edge in µm:
// routed length plus snaking.
func (n *Node) EdgeLen() float64 {
	if n.Parent == nil {
		return 0
	}
	return n.Route.Length() + n.Snake
}

// Tree is a clock tree over a technology. The zero value is not usable; use
// New.
type Tree struct {
	Tech *tech.Tech
	Root *Node
	// SourceR is the output resistance (kΩ) of the clock source driving the
	// root at the reference corner.
	SourceR float64

	nodes []*Node // dense by ID; nil entries mark deleted nodes
}

// New creates a tree with a single Source node at loc, driven by a source
// with the given output resistance (kΩ).
func New(t *tech.Tech, loc geom.Point, sourceR float64) *Tree {
	tr := &Tree{Tech: t, SourceR: sourceR}
	root := &Node{ID: 0, Kind: Source, Loc: loc}
	tr.Root = root
	tr.nodes = []*Node{root}
	return tr
}

// NumNodes returns the number of live nodes.
func (tr *Tree) NumNodes() int {
	n := 0
	for _, nd := range tr.nodes {
		if nd != nil {
			n++
		}
	}
	return n
}

// Node returns the node with the given ID, or nil.
func (tr *Tree) Node(id int) *Node {
	if id < 0 || id >= len(tr.nodes) {
		return nil
	}
	return tr.nodes[id]
}

// MaxID returns the largest ID ever allocated plus one (the length of the
// dense node table).
func (tr *Tree) MaxID() int { return len(tr.nodes) }

// AddChild creates a node of the given kind under parent at loc with a
// direct L-shaped route (horizontal-first) and the default wire width.
func (tr *Tree) AddChild(parent *Node, kind Kind, loc geom.Point) *Node {
	n := &Node{
		ID:     len(tr.nodes),
		Kind:   kind,
		Loc:    loc,
		Parent: parent,
		Route:  geom.LShape(parent.Loc, loc)[0],
	}
	parent.Children = append(parent.Children, n)
	tr.nodes = append(tr.nodes, n)
	return n
}

// AddSink creates a sink node under parent.
func (tr *Tree) AddSink(parent *Node, loc geom.Point, cap float64, name string) *Node {
	n := tr.AddChild(parent, Sink, loc)
	n.SinkCap = cap
	n.Name = name
	return n
}

// InsertOnEdge splits node n's parent edge at Manhattan distance d from the
// parent (along the route) and inserts a new node of the given kind there.
// The new node inherits the edge's width; the snaking allowance is divided
// pro-rata between the two halves (snake is modeled as uniformly distributed
// extra length). It returns the inserted node.
func (tr *Tree) InsertOnEdge(n *Node, d float64, kind Kind) *Node {
	parent := n.Parent
	if parent == nil {
		panic("ctree: InsertOnEdge on root")
	}
	upper, lower := n.Route.Split(d)
	frac := 0.0
	if rl := n.Route.Length(); rl > 0 {
		frac = d / rl
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
	}
	snakeUp := n.Snake * frac
	n.Snake -= snakeUp
	mid := &Node{
		ID:       len(tr.nodes),
		Kind:     kind,
		Loc:      upper[len(upper)-1],
		Parent:   parent,
		Children: []*Node{n},
		Route:    upper,
		WidthIdx: n.WidthIdx,
		Snake:    snakeUp,
	}
	tr.nodes = append(tr.nodes, mid)
	for i, c := range parent.Children {
		if c == n {
			parent.Children[i] = mid
			break
		}
	}
	n.Parent = mid
	n.Route = lower
	return mid
}

// SlideDegree2 moves a node with exactly one child to a new position along
// the combined parent-edge + child-edge corridor: newDist is the Manhattan
// route distance from the (unchanged) parent. Used for buffer sliding — the
// total corridor length and snaking are preserved, only the split point
// moves.
func (tr *Tree) SlideDegree2(n *Node, newDist float64) {
	if n.Parent == nil || len(n.Children) != 1 {
		panic("ctree: SlideDegree2 needs a non-root node with one child")
	}
	child := n.Children[0]
	joined := append(append(geom.Polyline(nil), n.Route...), child.Route...)
	joined = joined.Simplify()
	if len(joined) < 2 {
		// A fully zero-length corridor collapses to one point under
		// Simplify; keep the 2-point route invariant.
		joined = geom.Polyline{n.Parent.Loc, child.Loc}
	}
	totalSnake := n.Snake + child.Snake
	total := joined.Length()
	if newDist < 0 {
		newDist = 0
	}
	if newDist > total {
		newDist = total
	}
	upper, lower := joined.Split(newDist)
	n.Route = upper
	n.Loc = upper[len(upper)-1]
	child.Route = lower
	if total > 0 {
		n.Snake = totalSnake * newDist / total
	} else {
		n.Snake = 0
	}
	child.Snake = totalSnake - n.Snake
}

// RemoveDegree2 splices out an Internal or Buffer node that has exactly one
// child, joining its parent edge with the child's edge. The child keeps its
// own width; snaking allowances are added together on the child.
func (tr *Tree) RemoveDegree2(n *Node) {
	if n.Parent == nil || len(n.Children) != 1 || n.Kind == Sink || n.Kind == Source {
		panic("ctree: RemoveDegree2 needs a non-root, non-sink node with one child")
	}
	child := n.Children[0]
	joined := append(append(geom.Polyline(nil), n.Route...), child.Route...)
	joined = joined.Simplify()
	if len(joined) < 2 {
		// Both edges were zero-length (stacked nodes), so Simplify collapsed
		// the join to a single point; every live edge keeps a 2-point route.
		joined = geom.Polyline{n.Parent.Loc, child.Loc}
	}
	child.Route = joined
	child.Snake += n.Snake
	child.Parent = n.Parent
	for i, c := range n.Parent.Children {
		if c == n {
			n.Parent.Children[i] = child
			break
		}
	}
	tr.nodes[n.ID] = nil
	n.Parent = nil
	n.Children = nil
}

// Detach removes n from its parent's child list, leaving n (and its
// subtree) orphaned but still in the node table. Use Attach to re-home it or
// DeleteSubtree to discard it.
func (tr *Tree) Detach(n *Node) {
	if n.Parent == nil {
		panic("ctree: Detach on root")
	}
	p := n.Parent
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	n.Parent = nil
}

// Attach re-homes a detached node n under parent with the given route
// (which must run from parent.Loc to n.Loc). A nil route means a direct
// L-shape.
func (tr *Tree) Attach(n *Node, parent *Node, route geom.Polyline) {
	if n.Parent != nil {
		panic("ctree: Attach on non-orphan")
	}
	if route == nil {
		route = geom.LShape(parent.Loc, n.Loc)[0]
	}
	n.Parent = parent
	n.Route = route
	parent.Children = append(parent.Children, n)
}

// DeleteSubtree removes n and all its descendants from the tree. n is
// detached from its parent first if still attached.
func (tr *Tree) DeleteSubtree(n *Node) {
	if n.Parent != nil {
		tr.Detach(n)
	}
	var rec func(*Node)
	rec = func(m *Node) {
		for _, c := range m.Children {
			rec(c)
		}
		tr.nodes[m.ID] = nil
		m.Children = nil
		m.Parent = nil
	}
	rec(n)
}

// PreOrder visits every live node top-down (parents before children).
func (tr *Tree) PreOrder(visit func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(tr.Root)
}

// PostOrder visits every live node bottom-up (children before parents).
func (tr *Tree) PostOrder(visit func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		visit(n)
	}
	rec(tr.Root)
}

// Sinks returns all sink nodes in pre-order.
func (tr *Tree) Sinks() []*Node {
	var out []*Node
	tr.PreOrder(func(n *Node) {
		if n.Kind == Sink {
			out = append(out, n)
		}
	})
	return out
}

// Buffers returns all buffer nodes in pre-order.
func (tr *Tree) Buffers() []*Node {
	var out []*Node
	tr.PreOrder(func(n *Node) {
		if n.Kind == Buffer {
			out = append(out, n)
		}
	})
	return out
}

// EdgeRes returns the wire resistance (kΩ) of n's parent edge.
func (tr *Tree) EdgeRes(n *Node) float64 {
	if n.Parent == nil {
		return 0
	}
	return tr.Tech.Wires[n.WidthIdx].RPerUm * n.EdgeLen()
}

// EdgeCap returns the wire capacitance (fF) of n's parent edge.
func (tr *Tree) EdgeCap(n *Node) float64 {
	if n.Parent == nil {
		return 0
	}
	return tr.Tech.Wires[n.WidthIdx].CPerUm * n.EdgeLen()
}

// Wirelength returns the total routed wirelength including snaking (µm).
func (tr *Tree) Wirelength() float64 {
	var wl float64
	tr.PreOrder(func(n *Node) { wl += n.EdgeLen() })
	return wl
}

// WireCap returns the total wire capacitance (fF).
func (tr *Tree) WireCap() float64 {
	var c float64
	tr.PreOrder(func(n *Node) { c += tr.EdgeCap(n) })
	return c
}

// BufferCap returns the total buffer capacitance cost (fF): input plus
// output capacitance of every inserted composite, as counted against the
// contest capacitance limit.
func (tr *Tree) BufferCap() float64 {
	var c float64
	tr.PreOrder(func(n *Node) {
		if n.Buf != nil {
			c += n.Buf.CapCost()
		}
	})
	return c
}

// SinkCapTotal returns the sum of all sink load capacitances (fF).
func (tr *Tree) SinkCapTotal() float64 {
	var c float64
	tr.PreOrder(func(n *Node) { c += n.SinkCap })
	return c
}

// TotalCap is the capacitance charged against the benchmark's limit: wire
// plus buffers. Sink pin capacitance is part of the design, not the clock
// network, and is excluded (as in the contest).
func (tr *Tree) TotalCap() float64 { return tr.WireCap() + tr.BufferCap() }

// LoadCap returns the capacitance (fF) a driver sees looking into node n's
// parent edge: the edge's wire capacitance plus n's load. Buffer inputs
// shield everything below them; sinks contribute their pin capacitance;
// internal nodes recurse into their children.
func (tr *Tree) LoadCap(n *Node) float64 {
	c := tr.EdgeCap(n)
	switch n.Kind {
	case Buffer:
		return c + n.Buf.Cin()
	case Sink:
		return c + n.SinkCap
	}
	for _, ch := range n.Children {
		c += tr.LoadCap(ch)
	}
	return c
}

// InversionParity returns the number of inverting buffers on the path from
// the root to n, modulo 2. Sinks require parity 0 (same polarity as the
// source).
func (tr *Tree) InversionParity(n *Node) int {
	p := 0
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.Kind == Buffer {
			p ^= 1
		}
	}
	return p
}

// PathToRoot returns n, n.Parent, …, root.
func (tr *Tree) PathToRoot(n *Node) []*Node {
	var out []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		out = append(out, cur)
	}
	return out
}

// Clone returns a deep copy of the tree. Node IDs, kinds, routes, widths,
// snaking, buffers and sink data are all copied; the copy shares only the
// immutable Tech.
func (tr *Tree) Clone() *Tree {
	cp := &Tree{Tech: tr.Tech, SourceR: tr.SourceR}
	cp.nodes = make([]*Node, len(tr.nodes))
	for id, n := range tr.nodes {
		if n == nil {
			continue
		}
		nn := &Node{
			ID:       n.ID,
			Kind:     n.Kind,
			Loc:      n.Loc,
			Route:    append(geom.Polyline(nil), n.Route...),
			WidthIdx: n.WidthIdx,
			Snake:    n.Snake,
			SinkCap:  n.SinkCap,
			Name:     n.Name,
		}
		if n.Buf != nil {
			b := *n.Buf
			nn.Buf = &b
		}
		cp.nodes[id] = nn
	}
	for id, n := range tr.nodes {
		if n == nil {
			continue
		}
		nn := cp.nodes[id]
		if n.Parent != nil {
			nn.Parent = cp.nodes[n.Parent.ID]
		}
		nn.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			nn.Children[i] = cp.nodes[c.ID]
		}
	}
	cp.Root = cp.nodes[tr.Root.ID]
	return cp
}

// Restore rebuilds a Tree from an externally reconstructed node table —
// the inverse of walking tr.Node(id) for id < tr.MaxID(). nodes must be
// dense by ID (nil entries mark deleted IDs) with Parent and Children
// pointers already linked; the single Source node is taken as the root.
// The rebuilt tree is validated before being returned, so a decoder
// feeding this from persisted bytes can trust the result as much as a
// freshly synthesized tree.
func Restore(t *tech.Tech, sourceR float64, nodes []*Node) (*Tree, error) {
	tr := &Tree{Tech: t, SourceR: sourceR, nodes: nodes}
	for _, n := range nodes {
		if n != nil && n.Kind == Source {
			if tr.Root != nil {
				return nil, fmt.Errorf("ctree: restore found two source nodes (%d and %d)", tr.Root.ID, n.ID)
			}
			tr.Root = n
		}
	}
	if tr.Root == nil {
		return nil, fmt.Errorf("ctree: restore found no source node")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("ctree: restore: %w", err)
	}
	return tr, nil
}

// Validate checks structural invariants and returns the first violation:
// exactly one root of kind Source; parent/child pointers consistent; every
// route connects Parent.Loc to Loc with axis-parallel segments; every kind
// is known; sinks are leaves; buffers carry a composite of at least one
// inverter; no node is its own ancestor.
func (tr *Tree) Validate() error {
	if tr.Root == nil || tr.Root.Kind != Source || tr.Root.Parent != nil {
		return fmt.Errorf("ctree: bad root")
	}
	seen := make(map[int]bool)
	var err error
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if err != nil {
			return
		}
		if depth > len(tr.nodes) {
			err = fmt.Errorf("ctree: cycle detected at node %d", n.ID)
			return
		}
		if seen[n.ID] {
			err = fmt.Errorf("ctree: node %d reached twice", n.ID)
			return
		}
		seen[n.ID] = true
		if tr.nodes[n.ID] != n {
			err = fmt.Errorf("ctree: node %d not in table", n.ID)
			return
		}
		if n.Parent != nil {
			if len(n.Route) < 2 {
				err = fmt.Errorf("ctree: node %d has no route", n.ID)
				return
			}
			if !n.Route[0].Eq(n.Parent.Loc, 1e-6) {
				err = fmt.Errorf("ctree: node %d route does not start at parent (%v vs %v)",
					n.ID, n.Route[0], n.Parent.Loc)
				return
			}
			if !n.Route[len(n.Route)-1].Eq(n.Loc, 1e-6) {
				err = fmt.Errorf("ctree: node %d route does not end at node (%v vs %v)",
					n.ID, n.Route[len(n.Route)-1], n.Loc)
				return
			}
			for i := 1; i < len(n.Route); i++ {
				a, b := n.Route[i-1], n.Route[i]
				if a.X != b.X && a.Y != b.Y {
					err = fmt.Errorf("ctree: node %d route segment %d not rectilinear", n.ID, i)
					return
				}
			}
			if n.WidthIdx < 0 || n.WidthIdx >= len(tr.Tech.Wires) {
				err = fmt.Errorf("ctree: node %d bad width index %d", n.ID, n.WidthIdx)
				return
			}
			if n.Snake < 0 {
				err = fmt.Errorf("ctree: node %d negative snake", n.ID)
				return
			}
		}
		switch n.Kind {
		case Sink:
			if len(n.Children) != 0 {
				err = fmt.Errorf("ctree: sink %d has children", n.ID)
				return
			}
		case Buffer:
			if n.Buf == nil {
				err = fmt.Errorf("ctree: buffer %d missing composite", n.ID)
				return
			}
			if n.Buf.N < 1 {
				err = fmt.Errorf("ctree: buffer %d has %d inverters", n.ID, n.Buf.N)
				return
			}
		case Source:
			if n != tr.Root {
				err = fmt.Errorf("ctree: extra source %d", n.ID)
				return
			}
		case Internal:
		default:
			err = fmt.Errorf("ctree: node %d has unknown kind %d", n.ID, n.Kind)
			return
		}
		for _, c := range n.Children {
			if c.Parent != n {
				err = fmt.Errorf("ctree: child %d of %d has wrong parent", c.ID, n.ID)
				return
			}
			rec(c, depth+1)
		}
	}
	rec(tr.Root, 0)
	if err != nil {
		return err
	}
	for id, n := range tr.nodes {
		if n != nil && !seen[id] {
			return fmt.Errorf("ctree: node %d unreachable from root", id)
		}
	}
	return nil
}
