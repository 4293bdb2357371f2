package buffering

import (
	"fmt"
	"testing"

	"contango/internal/bench"
	"contango/internal/ctree"
	"contango/internal/ctree/ctreetest"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/tech"
)

// sweepCase is one composite-sweep input: a constructed (and, with
// obstacles, legalized) arena with its ladder, cap budget and options.
type sweepCase struct {
	name     string
	a        *ctree.Arena
	ladder   []tech.Composite
	capLimit float64
	opt      Options
}

// sweepCases returns TI samples on the large-inverter ladder, one of them
// with a budget nothing fits (so the fallback decides), and an obstructed
// ISPD'09 design on the small-batch ladder, all above sweepParMin.
func sweepCases(t *testing.T) []sweepCase {
	t.Helper()
	tk := tech.Default45()
	var cases []sweepCase
	pool := bench.NewTIPool()
	for _, n := range []int{300, 700} {
		bm := pool.Sample(n, int64(n))
		a := dme.BuildZSTArena(tk, bm.Source, bm.Sinks, dme.Options{})
		a.SourceR = bm.SourceR
		cases = append(cases,
			sweepCase{fmt.Sprintf("ti%d", n), a, tk.BatchLadder("Large", 1), bm.CapLimit, Options{}},
			sweepCase{fmt.Sprintf("ti%d-overbudget", n), a, tk.BatchLadder("Large", 1), a.WireCap(), Options{}})
	}
	bm, err := bench.ISPD09("ispd09fnb1")
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Obstacles) == 0 {
		t.Fatal("ispd09fnb1 has no obstacles")
	}
	ladder := tk.BatchLadder("Small", 8)
	a := dme.BuildZSTArena(tk, bm.Source, bm.Sinks, dme.Options{})
	a.SourceR = bm.SourceR
	obs := geom.NewObstacleSet(bm.Obstacles)
	if _, err := route.LegalizeArena(a, obs, bm.Die, route.Options{SafeCap: SafeLoad(tk, ladder[0])}); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, sweepCase{"ispd09fnb1", a, ladder, bm.CapLimit, Options{Obs: obs}})
	for _, c := range cases {
		if c.a.Len() < sweepParMin {
			t.Fatalf("%s: %d slots, below sweepParMin", c.name, c.a.Len())
		}
	}
	return cases
}

// TestCompositeSweepParallelBitIdentical: judging the ladder in blocks of
// 2 or 4 candidates gives the serial sweep's result and leaves a
// field-equal arena, whether a candidate fits or the fallback wins.
func TestCompositeSweepParallelBitIdentical(t *testing.T) {
	for _, c := range sweepCases(t) {
		var want *SweepResult
		var wantArena *ctree.Arena
		for _, par := range []int{1, 2, 4} {
			a := c.a.Clone()
			opt := c.opt
			opt.Parallelism = par
			res, err := InsertBestCompositeArena(a, c.ladder, c.capLimit, 0.10, opt)
			if err != nil {
				t.Fatalf("%s par %d: %v", c.name, par, err)
			}
			if par == 1 {
				want, wantArena = res, a
				continue
			}
			if *res != *want {
				t.Fatalf("%s par %d: %+v, serial %+v", c.name, par, *res, *want)
			}
			ctreetest.RequireSameArena(t, fmt.Sprintf("%s par %d", c.name, par), a, wantArena)
		}
	}
}

// TestCompositeSweepRejectsDanglingChild: a candidate whose arena has a
// dead child slot is skipped, never judged; when every candidate is
// broken the sweep fails and leaves the arena as it was.
func TestCompositeSweepRejectsDanglingChild(t *testing.T) {
	tk := tech.Default45()
	a := randomZST(7, 200)
	if a.Len() < sweepParMin {
		t.Fatalf("%d slots, below sweepParMin", a.Len())
	}
	var victim int32 = -1
	a.PreOrder(func(i int32) {
		if victim < 0 && a.Kind[i] == ctree.Sink {
			victim = i
		}
	})
	a.Alive.Unset(int(victim)) // its parent still lists it
	before := a.Clone()
	for _, par := range []int{1, 2} {
		res, err := InsertBestCompositeArena(a, tk.BatchLadder("Large", 1), 1e9, 0.10, Options{Parallelism: par})
		if err == nil {
			t.Fatalf("par %d: judged a broken candidate: %+v", par, *res)
		}
		ctreetest.RequireSameArena(t, fmt.Sprintf("par %d", par), a, before)
	}
}

// TestSweepWorkers: the sweep's block size follows the worker budget on
// mid-size trees and is capped by the ladder, by sweepParMin below and by
// sweepScratchMax above: two workers at 250k sinks, serial at a million.
func TestSweepWorkers(t *testing.T) {
	for _, c := range []struct{ slots, par, rungs, want int }{
		{10_000, 8, 64, 8},
		{10_000, 8, 4, 4},
		{10_000, 0, 64, 1},
		{sweepParMin - 1, 8, 64, 1},
		{500_000, 64, 64, 2},
		{2_000_000, 64, 64, 1},
	} {
		if got := sweepWorkers(c.slots, c.par, c.rungs); got != c.want {
			t.Errorf("sweepWorkers(%d, %d, %d) = %d, want %d", c.slots, c.par, c.rungs, got, c.want)
		}
	}
}
