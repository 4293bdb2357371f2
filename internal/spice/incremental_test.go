package spice

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// randomStagedTree builds a small random buffered tree: a trunk buffer
// chain with branch buffers and sinks hanging off it, enough stages for the
// incremental cone logic to matter while keeping transients fast.
func randomStagedTree(rng *rand.Rand, tk *tech.Tech) *ctree.Tree {
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	cur := a.Root()
	for i := 0; i < 2+rng.Intn(2); i++ {
		b := a.AddChildL(cur, ctree.Buffer, geom.Pt(float64(i+1)*400, rng.Float64()*200))
		a.SetBuf(b, comp)
		cur = b
	}
	hubs := []int32{cur}
	for i := 0; i < 2+rng.Intn(3); i++ {
		p := hubs[rng.Intn(len(hubs))]
		loc := geom.Pt(a.Loc[p].X+200+rng.Float64()*600, a.Loc[p].Y+rng.Float64()*600-300)
		if rng.Intn(2) == 0 {
			b := a.AddChildL(p, ctree.Buffer, loc)
			a.SetBuf(b, comp)
			hubs = append(hubs, b)
		} else {
			hubs = append(hubs, a.AddChildL(p, ctree.Internal, loc))
		}
	}
	for i := 0; i < 4+rng.Intn(4); i++ {
		p := hubs[rng.Intn(len(hubs))]
		a.AddSink(p, geom.Pt(a.Loc[p].X+100+rng.Float64()*300, a.Loc[p].Y+rng.Float64()*300), 20+rng.Float64()*30, "")
	}
	return ctree.NewTree(a)
}

// randomMove mutates the tree the way optimization rounds do: a direct
// write to a wire width, a snake or a buffer size, or an inverter pair
// inserted on an edge.
func randomMove(rng *rand.Rand, tr *ctree.Tree) {
	a := tr.Arena()
	var edges, bufs []int32
	a.PreOrder(func(n int32) {
		if a.Parent[n] >= 0 {
			edges = append(edges, n)
		}
		if a.Kind[n] == ctree.Buffer {
			bufs = append(bufs, n)
		}
	})
	switch rng.Intn(4) {
	case 0:
		a.WidthIdx[edges[rng.Intn(len(edges))]] = int32(rng.Intn(len(a.Tech.Wires)))
	case 1:
		a.Snake[edges[rng.Intn(len(edges))]] += float64(1+rng.Intn(6)) * 25
	case 2:
		if len(bufs) > 0 {
			a.BufN[bufs[rng.Intn(len(bufs))]] = int32(2 + rng.Intn(14))
		}
	case 3:
		n := edges[rng.Intn(len(edges))]
		if l := a.Route(n).Length(); l > 150 {
			comp := tech.Composite{Type: a.Tech.Inverters[1], N: 8}
			a.SetBuf(a.InsertOnEdge(n, l/2, ctree.Buffer), comp)
			a.SetBuf(a.InsertOnEdge(n, 10, ctree.Buffer), comp)
		}
	}
}

func transientResultsClose(t *testing.T, a, b *analysis.Result, tol float64) {
	t.Helper()
	check := func(what string, va, vb []float64) {
		if len(va) != len(vb) {
			t.Fatalf("%s size %d vs %d", what, len(va), len(vb))
		}
		for id, v := range va {
			if w := vb[id]; math.Abs(v-w) > tol {
				t.Fatalf("%s[%d] = %v vs %v", what, id, v, w)
			}
		}
	}
	if !slices.Equal(a.Has, b.Has) {
		t.Fatal("presence bits differ")
	}
	check("rise", a.Rise, b.Rise)
	check("fall", a.Fall, b.Fall)
	check("sinkSlew", a.SinkSlew, b.SinkSlew)
	check("stageSlew", a.StageSlew, b.StageSlew)
	if math.Abs(a.MaxSlew-b.MaxSlew) > tol || a.SlewViol != b.SlewViol {
		t.Fatalf("maxSlew %v/%v viol %d/%d", a.MaxSlew, b.MaxSlew, a.SlewViol, b.SlewViol)
	}
}

// TestIncrementalTransientParity: the acceptance property — random
// sizing/snaking/buffer moves, incremental evaluation vs a fresh full
// transient, every corner, within 1e-9 ps.
func TestIncrementalTransientParity(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 3; iter++ {
		tr := randomStagedTree(rng, tk)
		ie := NewIncremental(tr, New(), 1)
		for move := 0; move < 6; move++ {
			rs, err := ie.EvaluateCorners(tr, tk.Corners)
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range tk.Corners {
				want, err := New().Evaluate(tr, c)
				if err != nil {
					t.Fatal(err)
				}
				transientResultsClose(t, want, rs[ci], 1e-9)
			}
			randomMove(rng, tr)
		}
	}
}

// TestIncrementalSeesDirectWrites: the incremental evaluator finds the
// dirty cone from stage content, so bursts of direct field writes and edge
// insertions between evaluations never leave a stale stage behind. Every
// evaluation must equal the whole-tree Engine exactly.
func TestIncrementalSeesDirectWrites(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 3; iter++ {
		tr := randomStagedTree(rng, tk)
		ie := NewIncremental(tr, New(), 2)
		for round := 0; round < 6; round++ {
			got, err := ie.EvaluateCorners(tr, tk.Corners)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New().EvaluateCorners(tr, tk.Corners)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("iter %d round %d: incremental results differ from the whole-tree engine", iter, round)
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				randomMove(rng, tr)
			}
		}
	}
}

// TestIncrementalReusesCleanStages: a second evaluation of an unchanged
// tree must integrate nothing; a reverted probe must be served from the
// two-generation cache rather than re-integrating the cone.
func TestIncrementalReusesCleanStages(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(12))
	tr := randomStagedTree(rng, tk)
	ie := NewIncremental(tr, New(), 1)
	if _, err := ie.EvaluateCorners(tr, tk.Corners); err != nil {
		t.Fatal(err)
	}
	base := ie.Stats
	if _, err := ie.EvaluateCorners(tr, tk.Corners); err != nil {
		t.Fatal(err)
	}
	if sims := ie.Stats.StagesSim - base.StagesSim; sims != 0 {
		t.Fatalf("unchanged tree re-integrated %d stages", sims)
	}

	// Probe: snake one sink edge, evaluate, revert, evaluate. The revert
	// evaluation must find the pre-probe generation in the cache.
	a := tr.Arena()
	probe := a.Sinks()[0]
	a.Snake[probe] += 100
	if _, err := ie.EvaluateCorners(tr, tk.Corners); err != nil {
		t.Fatal(err)
	}
	a.Snake[probe] -= 100
	// The network memo would serve the revert whole; the stage cache
	// must serve it on its own too.
	ie.memo = newNetMemo(netMemoBudget)
	base = ie.Stats
	if _, err := ie.EvaluateCorners(tr, tk.Corners); err != nil {
		t.Fatal(err)
	}
	if sims := ie.Stats.StagesSim - base.StagesSim; sims != 0 {
		t.Fatalf("probe revert re-integrated %d stages, want 0 (two-generation cache)", sims)
	}
}

// TestIncrementalParallelMatchesSerial: the parallel stage scheduler must
// be bit-identical to serial evaluation at any worker count. Run with
// -race, this is also the data-race exercise for the worker pool.
func TestIncrementalParallelMatchesSerial(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(23))
	tr := randomStagedTree(rng, tk)
	parallel := NewIncremental(tr, New(), 8)
	for move := 0; move < 4; move++ {
		ps, err := parallel.EvaluateCorners(tr, tk.Corners)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh serial evaluator on a clone sees the same network with
		// cold caches; results must be exactly equal, not just close.
		serial := NewIncremental(tr.Clone(), New(), 1)
		ss, err := serial.EvaluateCorners(serial.tree, tk.Corners)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range tk.Corners {
			transientResultsClose(t, ss[ci], ps[ci], 0) // exactly equal
		}
		randomMove(rng, tr)
	}
}

// TestIncrementalSurvivesRestore: snapshot restore by copying the arena back
// in place (the IVC reject path) must invalidate correctly and stay at
// parity.
func TestIncrementalSurvivesRestore(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(31))
	tr := randomStagedTree(rng, tk)
	ie := NewIncremental(tr, New(), 1)
	if _, err := ie.EvaluateCorners(tr, tk.Corners); err != nil {
		t.Fatal(err)
	}
	snap := tr.Arena().Clone()
	for i := 0; i < 3; i++ {
		randomMove(rng, tr)
	}
	if _, err := ie.EvaluateCorners(tr, tk.Corners); err != nil {
		t.Fatal(err)
	}
	tr.Arena().CopyFrom(snap)
	ie.memo = newNetMemo(netMemoBudget) // test the stage cache, not the memo
	base := ie.Stats
	rs, err := ie.EvaluateCorners(tr, tk.Corners)
	if err != nil {
		t.Fatal(err)
	}
	if sims := ie.Stats.StagesSim - base.StagesSim; sims != 0 {
		t.Fatalf("restore re-integrated %d stages, want 0 (signature-matched generation)", sims)
	}
	for ci, c := range tk.Corners {
		want, err := New().Evaluate(tr, c)
		if err != nil {
			t.Fatal(err)
		}
		transientResultsClose(t, want, rs[ci], 1e-9)
	}
}

// TestIncrementalOneEdgeMissMatchesEngine: when a stage misses the cache on
// one launch edge only, the engine integrates that column alone and serves
// the other edge from the cache; the merged result must still equal the
// whole-tree engine's, and exactly one edge's stages are re-simulated.
func TestIncrementalOneEdgeMissMatchesEngine(t *testing.T) {
	tk := tech.Default45()
	tr := randomStagedTree(rand.New(rand.NewSource(41)), tk)
	want, err := New().EvaluateCorners(tr, tk.Corners)
	if err != nil {
		t.Fatal(err)
	}
	for _, dropRising := range []bool{true, false} {
		ie := NewIncremental(tr, New(), 0)
		if _, err := ie.EvaluateCorners(tr, tk.Corners); err != nil {
			t.Fatal(err)
		}
		for _, c := range tk.Corners {
			delete(ie.launches, launchKey{c, dropRising})
		}
		// The network memo would serve the unchanged tree whole; this
		// test is about the per-edge stage cache.
		ie.memo = newNetMemo(netMemoBudget)
		sims, hits := ie.Stats.StagesSim, ie.Stats.StagesHit
		got, err := ie.EvaluateCorners(tr, tk.Corners)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range got {
			transientResultsClose(t, want[ci], got[ci], 0) // exactly equal
		}
		stages := ie.Stats.FullStages * len(tk.Corners)
		if d := ie.Stats.StagesSim - sims; d != stages {
			t.Errorf("dropped rising=%v: %d stage sims, want %d (one edge)", dropRising, d, stages)
		}
		if d := ie.Stats.StagesHit - hits; d != stages {
			t.Errorf("dropped rising=%v: %d cache hits, want %d (the other edge)", dropRising, d, stages)
		}
	}
}

// TestIncrementalCornerPairMatchesAlone: the ispd09 pair shares its
// derates, so EvaluateCorners runs both corners as one four-column task.
// Its results, cache behavior and Stats must equal those of evaluators that
// see each corner alone — on a cold cache, a warm one, and after moves —
// at every parallelism level.
func TestIncrementalCornerPairMatchesAlone(t *testing.T) {
	tk := tech.Default45()
	if g := cornerGroups(tk.Corners); len(g) != 1 || g[0] != (cornerGroup{0, 2}) {
		t.Fatalf("ispd09 corners grouped as %v, want one pair", g)
	}
	for _, par := range []int{1, 4} {
		rng := rand.New(rand.NewSource(17))
		tr := randomStagedTree(rng, tk)
		pair := NewIncremental(tr, New(), par)
		alone := make([]*Incremental, len(tk.Corners))
		for k := range alone {
			alone[k] = NewIncremental(tr, New(), par)
		}
		for round := 0; round < 5; round++ {
			got, err := pair.EvaluateCorners(tr, tk.Corners)
			if err != nil {
				t.Fatal(err)
			}
			var want IncrementalStats
			runs := 0
			for k, c := range tk.Corners {
				r, err := alone[k].Evaluate(tr, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[k], r) {
					t.Fatalf("parallelism %d round %d: corner %q differs from its lone evaluation", par, round, c.Name)
				}
				st := alone[k].Stats
				want.Evals += st.Evals
				want.NetHits += st.NetHits
				want.StagesSim += st.StagesSim
				want.StagesHit += st.StagesHit
				want.FullStages = st.FullStages
				runs += alone[k].Eng.Runs
			}
			if pair.Stats != want || pair.Eng.Runs != runs {
				t.Fatalf("parallelism %d round %d: stats %+v runs %d, lone corners %+v runs %d",
					par, round, pair.Stats, pair.Eng.Runs, want, runs)
			}
			if round%2 == 1 {
				randomMove(rng, tr)
			}
		}
		if pair.Stats.StagesHit == 0 {
			t.Errorf("parallelism %d: the cache never served a stage", par)
		}
	}
}
