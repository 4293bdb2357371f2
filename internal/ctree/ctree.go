// Package ctree defines the clock-tree data structure shared by every stage
// of the synthesizer: topology construction (DME), obstacle-avoiding
// rerouting, buffer insertion, polarity correction, ECO delta replay, the
// delay evaluators, the SPICE-driven optimization passes and the result
// codec.
//
// A tree has one form, the structure-of-arrays Arena: a rooted collection
// of slots, where every non-root slot owns the edge to its parent (a
// rectilinear route, a wire-width index into the technology's wire table,
// and an optional snaking allowance — extra serpentine length used to slow
// fast paths down). Buffers (inverters) are slots of kind Buffer placed on
// edges. Every pass reads and writes the arena by slot index.
//
// Tree is a thin handle on one Arena. It is the package boundary the
// end-to-end benchmark module (benchmark/) compiles against: results, ECO bases and
// evaluator signatures carry a *Tree, and that module walks it through
// Node views (PreOrder) and edits it through Validate, DeleteSubtree and
// Clone. Code inside the repository reaches the arena through Arena.
package ctree

import (
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

// Node is a view of one arena slot, handed out by Tree.PreOrder. ID is the
// slot index and Parent the view of the parent slot (nil on the root).
// Writes to Kind, Loc, Buf, SinkCap and Name reach the arena the next time
// it is reached through the handle; ID and Parent are read-only.
type Node struct {
	ID     int
	Kind   Kind
	Loc    geom.Point
	Parent *Node
	// Buf is the composite inverter driving this node's subtree; non-nil
	// exactly when the slot carries one.
	Buf *tech.Composite
	// SinkCap is the load capacitance (fF) when Kind == Sink.
	SinkCap float64
	Name    string
}

// Tree is a handle on one Arena. Views handed out by PreOrder stay live
// until the arena is next reached through the handle (Arena, Validate,
// DeleteSubtree, Clone), which first writes their fields back. A Tree with
// outstanding views is not safe for concurrent use.
type Tree struct {
	a     *Arena
	views []*Node // by slot; nil when no view is outstanding
}

// NewTree returns a handle on a. The handle owns a from then on.
func NewTree(a *Arena) *Tree { return &Tree{a: a} }

// Arena writes back outstanding views and returns the tree's arena.
func (tr *Tree) Arena() *Arena {
	if tr.views != nil {
		tr.sync()
	}
	return tr.a
}

// sync applies every outstanding view's writable fields to its slot and
// drops the views.
func (tr *Tree) sync() {
	a := tr.a
	for i, n := range tr.views {
		if n == nil {
			continue
		}
		a.Kind[i], a.Loc[i], a.SinkCap[i], a.Name[i] = n.Kind, n.Loc, n.SinkCap, n.Name
		var comp tech.Composite
		if n.Buf != nil {
			comp = *n.Buf
		}
		a.SetBuf(int32(i), comp)
	}
	tr.views = nil
}

// Validate checks the arena's structural invariants (Arena.Validate).
func (tr *Tree) Validate() error { return tr.Arena().Validate() }

// Clone returns a handle on a deep copy of the arena.
func (tr *Tree) Clone() *Tree { return NewTree(tr.Arena().Clone()) }

// DeleteSubtree removes the slot n views and all its descendants.
func (tr *Tree) DeleteSubtree(n *Node) { tr.Arena().DeleteSubtree(int32(n.ID)) }

// PreOrder visits a view of every live node top-down (parents before
// children). Repeated walks hand out the same views until the arena is next
// reached through the handle. visit must not change the tree's structure.
func (tr *Tree) PreOrder(visit func(*Node)) {
	a := tr.a
	if tr.views == nil {
		tr.views = make([]*Node, a.Len())
	}
	a.PreOrder(func(i int32) {
		n := tr.views[i]
		if n == nil {
			n = &Node{ID: int(i), Kind: a.Kind[i], Loc: a.Loc[i], SinkCap: a.SinkCap[i], Name: a.Name[i]}
			if p := a.Parent[i]; p >= 0 {
				n.Parent = tr.views[p]
			}
			if comp, ok := a.Buf(i); ok {
				n.Buf = new(tech.Composite)
				*n.Buf = comp
			}
			tr.views[i] = n
		}
		visit(n)
	})
}
