package analysis

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// randomMove applies one random sizing/snaking/buffer mutation by direct
// field writes (plus occasional structural edits), mirroring what the
// optimization passes do between evaluations.
func randomMove(rng *rand.Rand, tr *ctree.Tree) {
	var nodes []*ctree.Node
	tr.PreOrder(func(n *ctree.Node) {
		if n.Parent != nil {
			nodes = append(nodes, n)
		}
	})
	if len(nodes) == 0 {
		return
	}
	n := nodes[rng.Intn(len(nodes))]
	switch rng.Intn(5) {
	case 0:
		n.WidthIdx = rng.Intn(len(tr.Tech.Wires))
	case 1:
		n.Snake += float64(rng.Intn(8)) * 25
	case 2:
		if n.Snake >= 25 {
			n.Snake -= 25
		} else {
			n.Snake = 50
		}
	case 3:
		var bufs []*ctree.Node
		for _, m := range nodes {
			if m.Kind == ctree.Buffer {
				bufs = append(bufs, m)
			}
		}
		if len(bufs) > 0 {
			bufs[rng.Intn(len(bufs))].Buf.N = 1 + rng.Intn(16)
		}
	case 4:
		if n.Route.Length() > 100 {
			comp := tech.Composite{Type: tr.Tech.Inverters[1], N: 8}
			// Insert a polarity-preserving inverter pair mid-edge.
			b1 := tr.InsertOnEdge(n, n.Route.Length()/2, ctree.Buffer)
			c1 := comp
			b1.Buf = &c1
			b2 := tr.InsertOnEdge(n, 10, ctree.Buffer)
			c2 := comp
			b2.Buf = &c2
		}
	}
}

// sameStage reports whether two stages are electrically identical: same
// driver (ID and composite, or source resistance), RC arrays, loads and
// sinks. It is the field-by-field statement of what stageSig hashes.
func sameStage(a, b *Stage, ta, tb *ctree.Tree) bool {
	if a.Key() != b.Key() {
		return false
	}
	if a.Driver < 0 {
		if ta.SourceR != tb.SourceR {
			return false
		}
	} else if a.Buf != b.Buf {
		return false
	}
	if !slices.Equal(a.R, b.R) || !slices.Equal(a.C, b.C) || !slices.Equal(a.Par, b.Par) ||
		len(a.Loads) != len(b.Loads) || len(a.Sinks) != len(b.Sinks) {
		return false
	}
	for j := range a.Loads {
		if a.Loads[j].Node != b.Loads[j].Node || a.Loads[j].Slot != b.Loads[j].Slot {
			return false
		}
	}
	for j := range a.Sinks {
		if a.Sinks[j].Node != b.Sinks[j].Node || a.Sinks[j].Slot != b.Sinks[j].Slot {
			return false
		}
	}
	return true
}

// sigsByKey maps each stage's driver key to its signature.
func sigsByKey(net *Net) map[int]uint64 {
	out := make(map[int]uint64, len(net.Stages))
	for _, s := range net.Stages {
		out[s.Key()] = s.Sig()
	}
	return out
}

// TestStageSigTracksContent: Extract signs every stage by content. Across
// random moves, a stage keeps its signature exactly when its content is
// unchanged, and restoring a snapshot restores every signature.
func TestStageSigTracksContent(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(42))
	kept, changed := 0, 0
	for iter := 0; iter < 10; iter++ {
		tr := randomBufferedTree(rng, tk)
		snap := tr.Clone()
		base := sigsByKey(Extract(tr, 0))
		for move := 0; move < 25; move++ {
			// Extract a clone: the moves write node fields in place.
			before := tr.Clone()
			prev := Extract(before, 0)
			randomMove(rng, tr)
			old := map[int]*Stage{}
			for _, s := range prev.Stages {
				old[s.Key()] = s
			}
			for _, s := range Extract(tr, 0).Stages {
				o := old[s.Key()]
				if o == nil {
					continue
				}
				same := sameStage(o, s, before, tr)
				if same != (o.Sig() == s.Sig()) {
					t.Fatalf("iter %d move %d stage %d: content equal %v, signatures %x vs %x",
						iter, move, s.Key(), same, o.Sig(), s.Sig())
				}
				if same {
					kept++
				} else {
					changed++
				}
			}
		}
		*tr = *snap
		if got := sigsByKey(Extract(tr, 0)); !reflect.DeepEqual(got, base) {
			t.Fatalf("iter %d: signatures after restore differ from the snapshot's", iter)
		}
	}
	if kept == 0 || changed == 0 {
		t.Fatalf("moves kept %d and changed %d stage signatures; both must occur", kept, changed)
	}
}
