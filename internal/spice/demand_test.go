package spice

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// eagerEval is the test's eager network walker: every stage column runs
// to its eager stop through refStage, with every sample stored, and each
// child is driven by the trimmed full load waveform of its parent. ref
// holds the stage results per column (corner k's launch edge c is column
// 2k+c), runs how each column ran.
type eagerEval struct {
	results []*analysis.Result
	ref     [][]*stageResult
	runs    []refRun
}

// eagerNetwork evaluates net at every corner the eager way.
func eagerNetwork(e *Engine, net *analysis.Net, cs []tech.Corner) eagerEval {
	n := len(net.Stages)
	dirs := make([]bool, n)
	for i, s := range net.Stages {
		dirs[i] = s.Parent < 0 || !dirs[s.Parent]
	}
	nSinks := 0
	for _, s := range net.Stages {
		nSinks += len(s.Sinks)
	}
	keys := resultKeysOf(net)
	var ev eagerEval
	for _, corner := range cs {
		flat := newFlatResult(nSinks, n)
		for _, rising := range launchEdges {
			col := make([]*stageResult, n)
			chosen := make([]*stageEntry, n)
			for i, s := range net.Stages {
				var vin *Waveform
				if s.Parent < 0 {
					vin = Ramp(corner.Vdd, 0, e.SourceSlew, e.Dt)
					if rising {
						vin = Ramp(0, corner.Vdd, e.SourceSlew, e.Dt)
					}
				} else {
					up := col[s.Parent]
					if up == nil {
						continue
					}
					w, ok := up.loadWaves[s.InputNode]
					if !ok {
						continue
					}
					vin = w.TrimInto(0.002*corner.Vdd, new(Waveform))
				}
				drv, rd := stageDriver(net, s, corner)
				res, run := refStage(e, s, stageIn{vin: vin, outRising: dirs[i] == rising, corner: corner, drv: drv, rd: rd})
				col[i] = &res
				chosen[i] = &stageEntry{res: res}
				ev.runs = append(ev.runs, run)
			}
			addLaunch(&flat, net, chosen, rising, e.SourceSlew/2)
			ev.ref = append(ev.ref, col)
		}
		ev.results = append(ev.results, flat.result(corner, keys, net.Slots))
	}
	return ev
}

// chainTree is a straight chain of buffers, each driving a sink and the
// next buffer.
func chainTree(rng *rand.Rand, tk *tech.Tech) *ctree.Tree {
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	cur := a.Root()
	for i := 0; i < 4+rng.Intn(5); i++ {
		b := a.AddChildL(cur, ctree.Buffer, geom.Pt(float64(i+1)*350, rng.Float64()*100))
		a.SetBuf(b, comp)
		a.AddSink(b, geom.Pt(a.Loc[b].X+50+rng.Float64()*100, a.Loc[b].Y+100), 20+rng.Float64()*30, "")
		cur = b
	}
	a.AddSink(cur, geom.Pt(a.Loc[cur].X+200, a.Loc[cur].Y), 25, "")
	return ctree.NewTree(a)
}

// starTree has one buffer driving many buffered branches directly, so
// that many children pull one parent at once.
func starTree(rng *rand.Rand, tk *tech.Tech) *ctree.Tree {
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	hub := a.AddChildL(a.Root(), ctree.Buffer, geom.Pt(400, 0))
	a.SetBuf(hub, comp)
	for j, fan := 0, 4+rng.Intn(3); j < fan; j++ {
		b := a.AddChildL(hub, ctree.Buffer, geom.Pt(700+rng.Float64()*300, float64(j-fan/2)*200))
		a.SetBuf(b, comp)
		for k := 0; k < 1+rng.Intn(3); k++ {
			a.AddSink(b, geom.Pt(a.Loc[b].X+100+rng.Float64()*200, a.Loc[b].Y+rng.Float64()*100), 20+rng.Float64()*30, "")
		}
	}
	return ctree.NewTree(a)
}

// slowDriverTech returns tk with a threshold voltage close to the supply,
// so that a buffer drives far more weakly in saturation than the
// resistance the windows are sized by: tEndMin falls before the last
// crossings of its stages.
func slowDriverTech(tk *tech.Tech) *tech.Tech {
	slow := *tk
	slow.Vt = 0.8
	return &slow
}

// TestDemandIntegrationMatchesEager: integrating stages only as far as a
// downstream stage reads them must not change a bit. On random chains,
// stars, deep-and-wide trees, random trees and trees whose weak drivers
// put tEndMin before the crossings, at the ispd09, pvt5 and mc:4:1 sets,
// Engine and Incremental at Parallelism 1, 2, 4 and 8 must return exactly
// the eager walker's results through a sequence of moves and reverts, and
// every Incremental must count the same work. Afterwards, pulling every
// load view of every cached transient to its end must reproduce refStage's
// load waveforms bit for bit: samples, tail and start time.
func TestDemandIntegrationMatchesEager(t *testing.T) {
	base := tech.Default45()
	shapes := []struct {
		name  string
		build func(*rand.Rand, *tech.Tech) *ctree.Tree
		slow  bool
	}{
		{"chain", chainTree, false},
		{"star", starTree, false},
		{"deep-wide", deepWideTree, false},
		{"random", randomStagedTree, false},
		{"weak-driver", randomStagedTree, true},
	}
	// Each set runs some of the shapes, so that every shape runs and the
	// eager walks stay short enough for the race detector.
	sets := []struct {
		spec   string
		shapes []int
	}{{"ispd09", []int{1, 2, 4}}, {"pvt5", []int{3, 4}}, {"mc:4:1", []int{0, 3}}}
	var late, pulled, views int
	for _, cs := range sets {
		spec := cs.spec
		set, err := corners.Build(spec, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, si := range cs.shapes {
			sh := shapes[si]
			tk := set.Apply(base)
			if sh.slow {
				tk = slowDriverTech(tk)
			}
			rng := rand.New(rand.NewSource(int64(17*si + len(spec))))
			tr := sh.build(rng, tk)
			evs := []*Incremental{}
			for _, p := range []int{1, 2, 4, 8} {
				evs = append(evs, NewIncremental(tr, New(), p))
			}
			// want records, per cache entry, the eager result of its stage
			// and column in the evaluation that chose it.
			want := map[*stageEntry]*stageResult{}
			snap := tr.Arena().Clone()
			for move := 0; move < 3; move++ {
				what := fmt.Sprintf("%s %s move %d", spec, sh.name, move)
				net := new(analysis.Net)
				if err := net.Extract(tr.Arena(), New().MaxSeg); err != nil {
					t.Fatal(err)
				}
				ev := eagerNetwork(New(), net, tk.Corners)
				for _, r := range ev.runs {
					if r.lateCross {
						late++
					}
				}
				got, err := New().EvaluateCorners(tr, tk.Corners)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ev.results) {
					t.Fatalf("%s: Engine differs from the eager walker", what)
				}
				chains := chainKeys(net, nil)
				for _, ie := range evs {
					got, err := ie.EvaluateCorners(tr, tk.Corners)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, ev.results) {
						t.Fatalf("%s: Incremental at parallelism %d differs from the eager walker", what, ie.Parallelism)
					}
					if ie.Stats != evs[0].Stats || ie.Eng.Runs != evs[0].Eng.Runs {
						t.Fatalf("%s: parallelism %d stats %+v, serial %+v", what, ie.Parallelism, ie.Stats, evs[0].Stats)
					}
					for k, corner := range tk.Corners {
						for c, rising := range launchEdges {
							lk := launchKey{corner, rising}
							for i, s := range net.Stages {
								for _, ent := range ie.launches[lk][s.Key()] {
									if ent.chain == chains[i] && ev.ref[2*k+c][i] != nil {
										want[ent] = ev.ref[2*k+c][i]
									}
								}
							}
						}
					}
				}
				switch move % 2 {
				case 0:
					snap.CopyFrom(tr.Arena())
					for k := 1 + rng.Intn(2); k > 0; k-- {
						randomMove(rng, tr)
					}
				case 1:
					tr.Arena().CopyFrom(snap) // revert, as a rejected round does
				}
			}
			for _, ie := range evs {
				for _, byKey := range ie.launches {
					for _, lst := range byKey {
						for _, ent := range lst {
							ref, ok := want[ent]
							if !ok {
								continue
							}
							pulled++
							for node, w := range ent.res.loadWaves {
								if w.feed != nil {
									if _, done := w.final(); !done {
										views++
									}
								}
								sameFinalWave(t, fmt.Sprintf("%s %s parallelism %d node %d", spec, sh.name, ie.Parallelism, node), w, ref.loadWaves[node])
							}
							sameStageResult(t, spec+" "+sh.name, &ent.res, ref)
						}
					}
				}
			}
		}
	}
	if late == 0 || pulled == 0 || views == 0 {
		t.Errorf("coverage: %d columns crossing after tEndMin, %d cached transients pulled, %d of their load views unfinished", late, pulled, views)
	}
	t.Logf("%d columns crossing after tEndMin; %d cached transients pulled to the end, %d unfinished load views", late, pulled, views)
}

// sameFinalWave fails unless w, pulled to its end, stores exactly the
// samples of refStage's fully stored waveform ref up to its last change,
// with the rest as its tail, and starts where ref starts.
func sameFinalWave(t *testing.T, what string, w, ref *Waveform) {
	t.Helper()
	got := w.complete()
	keep := len(ref.V)
	for keep > 1 && math.Float64bits(ref.V[keep-1]) == math.Float64bits(ref.V[keep-2]) {
		keep--
	}
	if math.Float64bits(got.T0) != math.Float64bits(ref.T0) || math.Float64bits(got.V0) != math.Float64bits(ref.V0) ||
		got.Dt != ref.Dt || len(got.V) != keep || got.Tail != len(ref.V)-keep {
		t.Fatalf("%s: T0 %v V0 %v, %d stored + %d tail; reference T0 %v V0 %v, %d + %d",
			what, got.T0, got.V0, len(got.V), got.Tail, ref.T0, ref.V0, keep, len(ref.V)-keep)
	}
	for i := range got.V {
		if math.Float64bits(got.V[i]) != math.Float64bits(ref.V[i]) {
			t.Fatalf("%s: sample %d %v, reference %v", what, i, got.V[i], ref.V[i])
		}
	}
}

// TestCachedProducerExtends: a cached transient that a later evaluation
// reuses under a slower child is extended in place. Snaking the leaf
// stage's sink wire moves its crossings later, so it reads its parent
// further than before: the parent must be served from the cache (only the
// leaf stage's transients are integrated again), the same entry must have
// run further, and the results must equal a fresh Engine's.
func TestCachedProducerExtends(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	p := a.AddChildL(a.Root(), ctree.Buffer, geom.Pt(400, 0))
	a.SetBuf(p, comp)
	l := a.AddChildL(p, ctree.Buffer, geom.Pt(900, 0))
	a.SetBuf(l, comp)
	sink := a.AddSink(l, geom.Pt(1200, 100), 30, "")
	tr := ctree.NewTree(a)
	ie := NewIncremental(tr, New(), 1)
	if _, err := ie.EvaluateCorners(tr, tk.Corners); err != nil {
		t.Fatal(err)
	}
	parent := -1
	for _, s := range ie.net.Stages {
		if s.Driver == int(p) {
			parent = s.Key()
			if len(s.Loads) == 0 {
				t.Fatal("the parent stage drives no buffer")
			}
		}
	}
	if parent < 0 {
		t.Fatal("no stage driven by the parent buffer")
	}
	before := map[launchKey]*stageEntry{}
	reach := map[launchKey]int{}
	for lk, byKey := range ie.launches {
		ent := byKey[parent][0]
		before[lk], reach[lk] = ent, ent.res.extent()
	}

	a.Snake[sink] += 3000
	sims := ie.Stats.StagesSim
	got, err := ie.EvaluateCorners(tr, tk.Corners)
	if err != nil {
		t.Fatal(err)
	}
	if d := ie.Stats.StagesSim - sims; d != 2*len(tk.Corners) {
		t.Errorf("integrated %d stage transients, want %d (the leaf stage only)", d, 2*len(tk.Corners))
	}
	for lk, ent := range before {
		if now := ie.launches[lk][parent][0]; now != ent {
			t.Fatalf("%v: the parent's cached transient was replaced", lk)
		}
		ext := ent.res.extent()
		if ext <= reach[lk] {
			t.Errorf("%v: the parent ran %d steps before and %d after; the slower child did not extend it", lk, reach[lk], ext)
		}
		t.Logf("%v: the parent ran %d steps, then %d", lk, reach[lk], ext)
	}
	want, err := New().EvaluateCorners(tr, tk.Corners)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after the extension differ from a fresh Engine")
	}
}

// TestWaveEqualOnUnfinishedViews: cache matching compares a stage's input
// with a cached entry's, and either may be a view on a suspended
// transient. waveEqual must answer as it does on the finished waveforms:
// two independent transients of the same stage and input are equal, and
// a transient of a different input is not.
func TestWaveEqualOnUnfinishedViews(t *testing.T) {
	e := New()
	var equal, unequal, open int
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s, in, _ := randomKernelCase(rng, uint8(trial%numShapes), e.Dt, 0, 1+rng.Intn(4))
		other := slices.Clone(in)
		other[0].vin = Ramp(other[0].vin.V0, other[0].vin.Last(), 7+rng.Float64()*200, e.Dt)
		a, b, c := e.simStage(s, in), e.simStage(s, in), e.simStage(s, other)
		node := s.Loads[0].Node
		wa, wb, wc := a[0].loadWaves[node], b[0].loadWaves[node], c[0].loadWaves[node]
		if _, done := wa.final(); !done {
			open++
		}
		tol := 0.002 * in[0].corner.Vdd
		ta, tb, tc := wa.TrimInto(tol, new(Waveform)), wb.TrimInto(tol, new(Waveform)), wc.TrimInto(tol, new(Waveform))
		same, diff := waveEqual(ta, tb), waveEqual(ta, tc)
		fa, fb, fc := ta.complete(), tb.complete(), tc.complete()
		if same != waveEqual(&fa, &fb) || diff != waveEqual(&fa, &fc) {
			t.Fatalf("trial %d: unfinished views compare %v/%v, finished %v/%v", trial, same, diff, waveEqual(&fa, &fb), waveEqual(&fa, &fc))
		}
		if !same {
			t.Fatalf("trial %d: two transients of the same input differ", trial)
		}
		equal++
		if !diff {
			unequal++
		}
	}
	if open == 0 || unequal == 0 {
		t.Errorf("coverage: %d unfinished views, %d unequal pairs", open, unequal)
	}
	t.Logf("%d equal pairs, %d unequal, %d unfinished views", equal, unequal, open)
}
