package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"contango/internal/bench"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/tech"
)

// randomBench builds a seeded random benchmark: sinks scattered over the
// die, avoiding a couple of random obstacles.
func randomBench(seed int64, n int) *bench.Benchmark {
	rng := rand.New(rand.NewSource(seed))
	die := geom.NewRect(0, 0, 8000, 6000)
	var obstacles []geom.Obstacle
	for k := 0; k < 2; k++ {
		x := 500 + rng.Float64()*6000
		y := 500 + rng.Float64()*4000
		obstacles = append(obstacles, geom.Obstacle{
			Rect: geom.NewRect(x, y, x+400+rng.Float64()*800, y+300+rng.Float64()*700),
			Name: fmt.Sprintf("b%d", k),
		})
	}
	obs := geom.NewObstacleSet(obstacles)
	var sinks []dme.Sink
	for len(sinks) < n {
		p := geom.Pt(rng.Float64()*8000, rng.Float64()*6000)
		if obs.BlocksPoint(p) {
			continue
		}
		sinks = append(sinks, dme.Sink{Loc: p, Cap: 20 + rng.Float64()*40,
			Name: fmt.Sprintf("s%d", len(sinks))})
	}
	b := &bench.Benchmark{
		Name: fmt.Sprintf("rand%d_%d", seed, n), Die: die,
		Source: geom.Pt(0, 3000), SourceR: 0.1,
		Sinks: sinks, Obstacles: obstacles,
	}
	b.CapLimit = 500000
	return b
}

// TestArenaDirtyJournalParityRandom: an arena built natively by DME and the
// arena flattened back from its pointer form (FromTree(ToTree())) must not
// only agree on content — after an identical randomized burst of the
// structural edits ECO replay makes, their dirty journals must be identical
// too, so downstream incremental consumers see the same invalidation set
// whichever way the arena was produced.
func TestArenaDirtyJournalParityRandom(t *testing.T) {
	tk := tech.Default45()
	for _, seed := range []int64{3, 11, 42} {
		rng := rand.New(rand.NewSource(seed))
		b := randomBench(seed, 60)
		arn := dme.BuildZSTArena(tk, b.Source, b.Sinks, dme.Options{})
		tr, err := arn.ToTree()
		if err != nil {
			t.Fatal(err)
		}
		ptr := ctree.FromTree(tr)
		if arn.Len() != ptr.Len() {
			t.Fatalf("seed %d: arena sizes differ: %d vs %d", seed, arn.Len(), ptr.Len())
		}
		ptr.ClearDirty()
		arn.ClearDirty()
		comp := tech.Composite{Type: tk.Inverters[0], N: 2}
		for burst := 0; burst < 200; burst++ {
			i := int32(rng.Intn(ptr.Len()))
			if !ptr.Alive.Test(int(i)) {
				continue
			}
			switch op := rng.Intn(5); {
			case op == 0 && ptr.Kind[i] != ctree.Sink:
				loc := geom.Pt(ptr.Loc[i].X+rng.Float64()*200, ptr.Loc[i].Y+rng.Float64()*200)
				cp := 10 + rng.Float64()*30
				if pn, an := ptr.AddSink(i, loc, cp, ""), arn.AddSink(i, loc, cp, ""); pn != an {
					t.Fatalf("seed %d: AddSink slot ids diverge: %d vs %d", seed, pn, an)
				}
			case op == 1 && ptr.Parent[i] >= 0 && ptr.EdgeLen(i) > 1:
				d := rng.Float64() * ptr.EdgeLen(i)
				pn := ptr.InsertOnEdge(i, d, ctree.Buffer)
				an := arn.InsertOnEdge(i, d, ctree.Buffer)
				if pn != an {
					t.Fatalf("seed %d: InsertOnEdge slot ids diverge: %d vs %d", seed, pn, an)
				}
				ptr.SetBuf(pn, comp)
				arn.SetBuf(an, comp)
			case op == 2 && ptr.Parent[i] >= 0 && ptr.ChildLen[i] == 1 &&
				(ptr.Kind[i] == ctree.Internal || ptr.Kind[i] == ctree.Buffer):
				ptr.RemoveDegree2(i)
				arn.RemoveDegree2(i)
			case op == 3 && ptr.Kind[i] == ctree.Sink:
				ptr.DeleteSubtree(i)
				arn.DeleteSubtree(i)
			case op == 4 && ptr.Kind[i] == ctree.Sink:
				// Re-home the sink under the parent of a random live slot.
				j := int32(rng.Intn(ptr.Len()))
				if !ptr.Alive.Test(int(j)) || ptr.Parent[j] < 0 || j == i {
					continue
				}
				p := ptr.Parent[j]
				ptr.Detach(i)
				arn.Detach(i)
				ptr.Attach(i, p, nil)
				arn.Attach(i, p, nil)
			}
		}
		if !reflect.DeepEqual(ptr.DirtyIDs(), arn.DirtyIDs()) {
			t.Fatalf("seed %d: dirty journals diverge:\n  pointer: %v\n  arena:   %v",
				seed, ptr.DirtyIDs(), arn.DirtyIDs())
		}
		pt, err := ptr.ToTree()
		if err != nil {
			t.Fatal(err)
		}
		at, err := arn.ToTree()
		if err != nil {
			t.Fatal(err)
		}
		if err := ctree.Equal(pt, at); err != nil {
			t.Fatalf("seed %d: trees diverge after burst: %v", seed, err)
		}
	}
}
