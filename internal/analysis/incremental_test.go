package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// randomMove applies one random sizing/snaking/buffer mutation through the
// journaling setters (plus occasional structural edits), mirroring what the
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
		tr.SetWidth(n, rng.Intn(len(tr.Tech.Wires)))
	case 1:
		tr.AddSnake(n, float64(rng.Intn(8))*25)
	case 2:
		if n.Snake >= 25 {
			tr.AddSnake(n, -25)
		} else {
			tr.SetSnake(n, 50)
		}
	case 3:
		var bufs []*ctree.Node
		for _, m := range nodes {
			if m.Kind == ctree.Buffer {
				bufs = append(bufs, m)
			}
		}
		if len(bufs) > 0 {
			b := bufs[rng.Intn(len(bufs))]
			tr.SetBufferSize(b, 1+rng.Intn(16))
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

// netsEqual requires the incremental net to be structurally and numerically
// identical to a fresh extraction.
func netsEqual(t *testing.T, fresh, inc *Net) {
	t.Helper()
	if len(fresh.Stages) != len(inc.Stages) {
		t.Fatalf("stage count %d vs %d", len(fresh.Stages), len(inc.Stages))
	}
	for i, fs := range fresh.Stages {
		is := inc.Stages[i]
		if fs.Index != is.Index || fs.Parent != is.Parent || fs.InputNode != is.InputNode {
			t.Fatalf("stage %d linkage differs: %+v vs %+v", i, fs, is)
		}
		if driverKey(fs.Driver) != driverKey(is.Driver) {
			t.Fatalf("stage %d driver differs", i)
		}
		if len(fs.R) != len(is.R) || len(fs.Loads) != len(is.Loads) || len(fs.Sinks) != len(is.Sinks) {
			t.Fatalf("stage %d sizes differ", i)
		}
		for j := range fs.R {
			if fs.R[j] != is.R[j] || fs.C[j] != is.C[j] || fs.Par[j] != is.Par[j] {
				t.Fatalf("stage %d RC node %d differs: R %v/%v C %v/%v", i, j, fs.R[j], is.R[j], fs.C[j], is.C[j])
			}
		}
		for j := range fs.Loads {
			if fs.Loads[j].Node != is.Loads[j].Node || fs.Loads[j].Buf.ID != is.Loads[j].Buf.ID {
				t.Fatalf("stage %d load %d differs", i, j)
			}
		}
		for j := range fs.Sinks {
			if fs.Sinks[j].Node != is.Sinks[j].Node || fs.Sinks[j].Sink.ID != is.Sinks[j].Sink.ID {
				t.Fatalf("stage %d sink %d differs", i, j)
			}
		}
		if len(fs.Children) != len(is.Children) {
			t.Fatalf("stage %d children differ", i)
		}
		for j := range fs.Children {
			if fs.Children[j] != is.Children[j] {
				t.Fatalf("stage %d child %d differs", i, j)
			}
		}
	}
}

// TestIncrementalNetMatchesExtract: after any sequence of journaled
// mutations, Sync must produce exactly the netlist a fresh Extract would.
func TestIncrementalNetMatchesExtract(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 10; iter++ {
		tr := randomBufferedTree(rng, tk)
		inc := NewIncrementalNet(tr, 0)
		for move := 0; move < 25; move++ {
			netsEqual(t, Extract(tr, 0), inc.Sync())
			randomMove(rng, tr)
		}
		netsEqual(t, Extract(tr, 0), inc.Sync())
		if inc.Reused == 0 {
			t.Error("incremental extractor never reused a stage")
		}
	}
}

// TestIncrementalNetSurvivesRestore: restoring a snapshot by struct
// assignment (the IVC reject path) replaces every node; Sync must detect it
// and still match a fresh extraction.
func TestIncrementalNetSurvivesRestore(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(7))
	tr := randomBufferedTree(rng, tk)
	inc := NewIncrementalNet(tr, 0)
	inc.Sync()
	snap := tr.Clone()
	for i := 0; i < 5; i++ {
		randomMove(rng, tr)
	}
	inc.Sync()
	*tr = *snap
	netsEqual(t, Extract(tr, 0), inc.Sync())
	// Mutations after the restore must be picked up too.
	randomMove(rng, tr)
	netsEqual(t, Extract(tr, 0), inc.Sync())
}

// modelMatchesFresh requires a closed-form model run on the synced
// incremental net to give results bit-identical to the same model on a
// fresh extraction, at every corner of the tree's technology.
func modelMatchesFresh(t *testing.T, name string, model func(*Net, []tech.Corner) []*Result, tr *ctree.Tree, inc *IncrementalNet) {
	t.Helper()
	cs := tr.Tech.Corners
	want := model(Extract(tr, 0), cs)
	got := model(inc.Sync(), cs)
	for k := range cs {
		if !reflect.DeepEqual(want[k], got[k]) {
			t.Fatalf("%s corner %q: incremental net result differs from fresh extraction", name, cs[k].Name)
		}
	}
}

// TestIncrementalElmoreParity: property-style — after every random move,
// Elmore on the synced incremental net equals Elmore on a fresh
// extraction, bit for bit.
func TestIncrementalElmoreParity(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 6; iter++ {
		tr := randomBufferedTree(rng, tk)
		inc := NewIncrementalNet(tr, 0)
		for move := 0; move < 20; move++ {
			modelMatchesFresh(t, "elmore", elmoreCorners, tr, inc)
			randomMove(rng, tr)
		}
	}
}

// TestIncrementalTwoPoleParity: the D2M variant of the same property.
func TestIncrementalTwoPoleParity(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 6; iter++ {
		tr := randomBufferedTree(rng, tk)
		inc := NewIncrementalNet(tr, 0)
		for move := 0; move < 20; move++ {
			modelMatchesFresh(t, "twopole", twoPoleCorners, tr, inc)
			randomMove(rng, tr)
		}
	}
}

// TestIncrementalElmoreAfterRestore: parity must survive the snapshot
// restore pattern used by the IVC reject path.
func TestIncrementalElmoreAfterRestore(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(11))
	tr := randomBufferedTree(rng, tk)
	inc := NewIncrementalNet(tr, 0)
	modelMatchesFresh(t, "elmore", elmoreCorners, tr, inc)
	snap := tr.Clone()
	for i := 0; i < 4; i++ {
		randomMove(rng, tr)
	}
	modelMatchesFresh(t, "elmore", elmoreCorners, tr, inc)
	*tr = *snap
	modelMatchesFresh(t, "elmore", elmoreCorners, tr, inc)
}
