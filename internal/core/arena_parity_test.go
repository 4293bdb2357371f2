package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"contango/internal/bench"
	"contango/internal/ctree"
	"contango/internal/ctree/ctreetest"
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

// TestArenaDirtyJournalParityRandom: an arena built natively by DME and
// the same arena read back through the result codec (the form an ECO base
// arrives in) must not only agree on content — after an identical
// randomized burst of the structural edits ECO replay makes, their dirty
// journals must be identical too, so downstream incremental consumers see
// the same invalidation set whichever way the arena was produced.
func TestArenaDirtyJournalParityRandom(t *testing.T) {
	tk := tech.Default45()
	for _, seed := range []int64{3, 11, 42} {
		rng := rand.New(rand.NewSource(seed))
		b := randomBench(seed, 60)
		arn := dme.BuildZSTArena(tk, b.Source, b.Sinks, dme.Options{})
		decoded, err := decodeTree(encodeTree(arn))
		if err != nil {
			t.Fatal(err)
		}
		dec := decoded.Arena()
		if arn.Len() != dec.Len() || ctreetest.Digest(arn) != ctreetest.Digest(dec) {
			t.Fatalf("seed %d: decoded arena differs from the built one", seed)
		}
		arn.Dirty.Reset()
		if len(dec.DirtyIDs()) != 0 {
			t.Fatalf("seed %d: decoded arena starts with a dirty journal", seed)
		}
		comp := tech.Composite{Type: tk.Inverters[0], N: 2}
		for burst := 0; burst < 200; burst++ {
			i := int32(rng.Intn(dec.Len()))
			if !dec.Alive.Test(int(i)) {
				continue
			}
			switch op := rng.Intn(5); {
			case op == 0 && dec.Kind[i] != ctree.Sink:
				loc := geom.Pt(dec.Loc[i].X+rng.Float64()*200, dec.Loc[i].Y+rng.Float64()*200)
				cp := 10 + rng.Float64()*30
				if dn, an := dec.AddSink(i, loc, cp, ""), arn.AddSink(i, loc, cp, ""); dn != an {
					t.Fatalf("seed %d: AddSink slot ids diverge: %d vs %d", seed, dn, an)
				}
			case op == 1 && dec.Parent[i] >= 0 && dec.EdgeLen(i) > 1:
				d := rng.Float64() * dec.EdgeLen(i)
				dn := dec.InsertOnEdge(i, d, ctree.Buffer)
				an := arn.InsertOnEdge(i, d, ctree.Buffer)
				if dn != an {
					t.Fatalf("seed %d: InsertOnEdge slot ids diverge: %d vs %d", seed, dn, an)
				}
				dec.SetBuf(dn, comp)
				arn.SetBuf(an, comp)
			case op == 2 && dec.Parent[i] >= 0 && dec.ChildLen[i] == 1 &&
				(dec.Kind[i] == ctree.Internal || dec.Kind[i] == ctree.Buffer):
				dec.RemoveDegree2(i)
				arn.RemoveDegree2(i)
			case op == 3 && dec.Kind[i] == ctree.Sink:
				dec.DeleteSubtree(i)
				arn.DeleteSubtree(i)
			case op == 4 && dec.Kind[i] == ctree.Sink:
				// Re-home the sink under the parent of a random live slot.
				j := int32(rng.Intn(dec.Len()))
				if !dec.Alive.Test(int(j)) || dec.Parent[j] < 0 || j == i {
					continue
				}
				p := dec.Parent[j]
				dec.Detach(i)
				arn.Detach(i)
				dec.Attach(i, p, nil)
				arn.Attach(i, p, nil)
			}
		}
		if !reflect.DeepEqual(dec.DirtyIDs(), arn.DirtyIDs()) {
			t.Fatalf("seed %d: dirty journals diverge:\n  decoded: %v\n  built:   %v",
				seed, dec.DirtyIDs(), arn.DirtyIDs())
		}
		if ctreetest.Digest(dec) != ctreetest.Digest(arn) {
			t.Fatalf("seed %d: trees diverge after burst", seed)
		}
	}
}
