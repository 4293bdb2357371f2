package ctree

import "contango/internal/tech"

// The slot view: both tree forms answer the same read-only, slot-indexed
// walk (RootSlot, NumChildren, Child, Slot), which netlist extraction
// runs on either. A pointer tree's node ID i is slot i, so a tree and its
// FromTree arena answer alike. Slot reports ok false for a slot that is
// out of range or dead.

// SlotInfo is one slot's electrical content: its kind, its parent slot,
// the wire of its parent edge, and its composite or sink load.
type SlotInfo struct {
	Kind     Kind
	Parent   int32 // -1 on the root and on detached slots
	WidthIdx int
	EdgeLen  float64        // electrical parent-edge length, µm
	Buf      tech.Composite // zero N unless the slot carries a composite
	SinkCap  float64
}

// RootSlot returns the Source slot.
func (tr *Tree) RootSlot() int32 { return int32(tr.Root.ID) }

// NumChildren returns the number of children of slot i.
func (tr *Tree) NumChildren(i int32) int { return len(tr.nodes[i].Children) }

// Child returns the j-th child slot of slot i.
func (tr *Tree) Child(i int32, j int) int32 { return int32(tr.nodes[i].Children[j].ID) }

// Slot returns what extraction reads of slot i; ok is false when i is out
// of range or dead.
func (tr *Tree) Slot(i int32) (SlotInfo, bool) {
	n := tr.Node(int(i))
	if n == nil {
		return SlotInfo{}, false
	}
	si := SlotInfo{Kind: n.Kind, Parent: -1, WidthIdx: n.WidthIdx, EdgeLen: n.EdgeLen(), SinkCap: n.SinkCap}
	if n.Parent != nil {
		si.Parent = int32(n.Parent.ID)
	}
	if n.Buf != nil {
		si.Buf = *n.Buf
	}
	return si, true
}

// RootSlot is the arena form of Tree.RootSlot.
func (a *Arena) RootSlot() int32 { return a.root }

// NumChildren is the arena form of Tree.NumChildren.
func (a *Arena) NumChildren(i int32) int { return int(a.ChildLen[i]) }

// Child is the arena form of Tree.Child.
func (a *Arena) Child(i int32, j int) int32 { return a.ChildIdx[int(a.ChildOff[i])+j] }

// Slot is the arena form of Tree.Slot.
func (a *Arena) Slot(i int32) (SlotInfo, bool) {
	if i < 0 || int(i) >= a.Len() || !a.Alive.Test(int(i)) {
		return SlotInfo{}, false
	}
	si := SlotInfo{Kind: a.Kind[i], Parent: a.Parent[i], WidthIdx: int(a.WidthIdx[i]),
		EdgeLen: a.EdgeLen(i), SinkCap: a.SinkCap[i]}
	if a.BufN[i] > 0 {
		si.Buf = tech.Composite{Type: a.BufType[i], N: int(a.BufN[i])}
	}
	return si, true
}
