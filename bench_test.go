// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus microbenchmarks of the substrates. Each
// table bench regenerates the corresponding experiment (on trimmed inputs
// where a full run would dominate the suite runtime); cmd/experiments
// produces the full-size tables with paper-reference columns.
package contango

import (
	"io"
	"reflect"
	"runtime"
	"testing"

	"contango/internal/analysis"
	"contango/internal/bench"
	"contango/internal/buffering"
	"contango/internal/core"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/slack"
	"contango/internal/spice"
	"contango/internal/tech"
	"contango/internal/viz"
)

// trimmed returns the named benchmark truncated to at most n sinks, with a
// proportionally reduced capacitance budget, for bounded bench runtimes.
// The truncation happens on a deep copy: back-to-back benchmarks loading
// the same name must never observe a previously mutated sink list or cap
// budget through shared backing arrays.
func trimmed(name string, n int) *bench.Benchmark {
	b, err := bench.ISPD09(name)
	if err != nil {
		panic(err)
	}
	b = b.Clone()
	if len(b.Sinks) > n {
		frac := float64(n) / float64(len(b.Sinks))
		b.Sinks = b.Sinks[:n]
		b.CapLimit *= frac
	}
	return b
}

// BenchmarkTableI_InverterAnalysis regenerates the composite inverter
// characterization (paper Table I) and the non-dominated composite set.
func BenchmarkTableI_InverterAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tk := tech.Default45()
		rows := tk.TableI()
		nd := tk.NonDominatedComposites()
		if len(rows) != 5 || len(nd) == 0 {
			b.Fatal("table I generation failed")
		}
	}
}

// BenchmarkTableII_PolarityCorrection runs construction + polarity
// correction (paper Table II: inverted sinks vs added inverters).
func BenchmarkTableII_PolarityCorrection(b *testing.B) {
	bm := trimmed("ispd09f22", 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.SynthesizeBaseline(bm, core.BaselineNoOpt, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.InvertedSinks > 0 && res.AddedInverters >= res.InvertedSinks {
			b.Fatalf("polarity correction not minimal: %d added for %d inverted",
				res.AddedInverters, res.InvertedSinks)
		}
	}
}

// BenchmarkTableIII_StageProgress runs the full optimization cascade and
// checks the paper's stage-progress shape (Table III): wire passes reduce
// skew from the initial buffered tree.
func BenchmarkTableIII_StageProgress(b *testing.B) {
	bm := trimmed("ispd09f22", 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(bm, core.Options{MaxRounds: 6, Cycles: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.Final.Skew > res.Stages[0].Metrics.Skew {
			b.Fatal("cascade failed to reduce skew")
		}
	}
}

// BenchmarkTableIV_ContestComparison runs Contango against a one-shot
// baseline (paper Table IV's comparison shape).
func BenchmarkTableIV_ContestComparison(b *testing.B) {
	bm := trimmed("ispd09f22", 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, err := core.Synthesize(bm, core.Options{MaxRounds: 6, Cycles: 2})
		if err != nil {
			b.Fatal(err)
		}
		base, err := core.SynthesizeBaseline(bm, core.BaselineGreedy, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if full.Final.Skew > base.Final.Skew {
			b.Fatal("optimized flow lost to the greedy baseline")
		}
	}
}

// BenchmarkTableV_Scalability runs the TI-style scaling protocol at one
// size (paper Table V).
func BenchmarkTableV_Scalability(b *testing.B) {
	pool := bench.NewTIPool()
	bm := pool.Sample(200, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(bm, core.Options{LargeInverters: true, MaxRounds: 6, Cycles: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.Final.TotalCap <= 0 {
			b.Fatal("no capacitance measured")
		}
	}
}

// BenchmarkFigure2_ContourDetour exercises the obstacle detouring algorithm
// on an enclosed-subtree scenario (paper Figure 2).
func BenchmarkFigure2_ContourDetour(b *testing.B) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 4000, 4000)
	obs := geom.NewObstacleSet([]geom.Obstacle{
		{Rect: geom.NewRect(1500, 1500, 2500, 2500)},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := buildEnclosed(tk)
		rep, err := route.LegalizeArena(a, obs, die, route.Options{SafeCap: 300})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Detours == 0 {
			b.Fatal("expected a contour detour")
		}
	}
}

func buildEnclosed(tk *tech.Tech) *ctree.Arena {
	a := ctree.NewArena(tk, geom.Pt(0, 2000), 0.1, ctree.HintsForSinks(24))
	hub := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(2000, 2000))
	for _, l := range []geom.Point{{X: 3000, Y: 2000}, {X: 2000, Y: 3000}, {X: 2000, Y: 1000}} {
		c := a.AddChildL(hub, ctree.Internal, l)
		for k := 0; k < 8; k++ {
			a.AddSink(c, geom.Pt(l.X+float64(30*k), l.Y+100), 40, "")
		}
	}
	return a
}

// BenchmarkFigure3_Render renders a synthesized tree with the slack
// gradient (paper Figure 3).
func BenchmarkFigure3_Render(b *testing.B) {
	bm := trimmed("ispd09f22", 40)
	res, err := core.SynthesizeBaseline(bm, core.BaselineNoOpt, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng := spice.New()
	var rs []*analysis.Result
	for _, c := range res.Tree.Arena().Tech.Corners {
		r, err := eng.Evaluate(res.Tree, c)
		if err != nil {
			b.Fatal(err)
		}
		rs = append(rs, r)
	}
	a := res.Tree.Arena()
	slk := slack.Compute(a, rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := viz.WriteSVG(io.Discard, a, viz.Options{
			Slacks: slk, Obstacles: bm.Obstacles, Die: bm.Die,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_CompositeBuffers compares the contest configuration
// (8x-small batches) against the TI configuration (large groups) — the
// paper's Section V runtime/quality trade.
func BenchmarkAblation_CompositeBuffers(b *testing.B) {
	pool := bench.NewTIPool()
	bm := pool.Sample(200, 7)
	for _, mode := range []struct {
		name  string
		large bool
	}{{"small8x", false}, {"largeGroups", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.SynthesizeBaseline(bm, core.BaselineNoOpt,
					core.Options{LargeInverters: mode.large})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_InsertionModes compares balanced load-threshold
// insertion against the van Ginneken DP (a design choice DESIGN.md calls
// out).
func BenchmarkAblation_InsertionModes(b *testing.B) {
	bm := trimmed("ispd09f22", 60)
	tk := tech.Default45()
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	for _, mode := range []string{"balanced", "vg"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := dme.BuildZSTArena(tk, bm.Source, bm.Sinks, dme.Options{})
				a.SourceR = bm.SourceR
				var err error
				if mode == "vg" {
					_, err = buffering.InsertArena(a, comp, buffering.Options{})
				} else {
					_, err = buffering.BalancedInsertArena(a, comp, buffering.Options{})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompositeSweep times the flow's buffer pass alone: the Section
// IV-C composite sweep (InsertBestCompositeArena) over the large-inverter
// ladder on a 2000-sink TI sample, every candidate built and judged, with
// the product's worker budget (GOMAXPROCS, so -cpu picks it). The ZST and
// the per-iteration input clone are untimed.
func BenchmarkCompositeSweep(b *testing.B) {
	bm := bench.NewTIPool().Sample(2000, 1)
	tk := tech.Default45()
	ladder := tk.BatchLadder("Large", 1)
	zst := dme.BuildZSTArena(tk, bm.Source, bm.Sinks, dme.Options{})
	zst.SourceR = bm.SourceR
	opt := buffering.Options{Parallelism: runtime.GOMAXPROCS(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := zst.Clone()
		b.StartTimer()
		if _, err := buffering.InsertBestCompositeArena(a, ladder, bm.CapLimit, 0.10, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

func BenchmarkDME_ZST1000(b *testing.B) {
	pool := bench.NewTIPool()
	bm := pool.Sample(1000, 3)
	tk := tech.Default45()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := dme.BuildZSTArena(tk, bm.Source, bm.Sinks, dme.Options{})
		if a.Len() == 0 {
			b.Fatal("empty tree")
		}
	}
}

func BenchmarkTransientEvaluate(b *testing.B) {
	bm := trimmed("ispd09f22", 60)
	res, err := core.SynthesizeBaseline(bm, core.BaselineNoOpt, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng := spice.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(res.Tree, res.Tree.Arena().Tech.Reference()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientCorners evaluates every corner of the default ispd09
// pair in one call, as each CNE of the cascade does. The two corners share
// their interconnect derates, so every stage runs both corners' rising and
// falling edges as one four-column kernel task; BenchmarkTransientEvaluate
// times one corner alone.
func BenchmarkTransientCorners(b *testing.B) {
	bm := trimmed("ispd09f22", 60)
	res, err := core.SynthesizeBaseline(bm, core.BaselineNoOpt, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng := spice.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateAll(res.Tree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkElmoreEvaluate(b *testing.B) {
	bm := trimmed("ispd09f22", 60)
	res, err := core.SynthesizeBaseline(bm, core.BaselineNoOpt, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := &analysis.Elmore{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(res.Tree, res.Tree.Arena().Tech.Reference()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalPhase isolates the cascade's evaluation phase: one sizing
// move on a buffered tree followed by a both-corner accurate evaluation.
// "full" re-extracts and re-simulates the whole network per move (the
// pre-incremental flow); "incremental" re-simulates only the move's dirty
// cone through the per-stage cache. The ns/op ratio between the two is the
// evaluation-phase speedup the CI bench gate tracks in BENCH_ci.json.
func BenchmarkEvalPhase(b *testing.B) {
	bm := trimmed("ispd09f22", 60)
	seed, err := core.SynthesizeBaseline(bm, core.BaselineNoOpt, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		tr := seed.Tree.Clone()
		a := tr.Arena()
		sinks := a.Sinks()
		eng := spice.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Snake[sinks[i%len(sinks)]] += 25
			for _, c := range a.Tech.Corners {
				if _, err := eng.Evaluate(tr, c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		tr := seed.Tree.Clone()
		a := tr.Arena()
		sinks := a.Sinks()
		ie := spice.NewIncremental(tr, spice.New(), 1)
		if _, err := ie.EvaluateCorners(tr, a.Tech.Corners); err != nil {
			b.Fatal(err) // warm the cache: steady-state cost is what matters
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Snake[sinks[i%len(sinks)]] += 25
			if _, err := ie.EvaluateCorners(tr, a.Tech.Corners); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCascadeIncremental runs the full optimization cascade with the
// incremental engine (the production configuration), tracking end-to-end
// flow cost in CI.
func BenchmarkCascadeIncremental(b *testing.B) {
	bm := trimmed("ispd09f22", 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(bm.Clone(), core.Options{MaxRounds: 6, Cycles: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.StageReuses == 0 {
			b.Fatal("incremental cache unused")
		}
	}
}

// BenchmarkPlanMatrix smokes the non-default built-in synthesis plans end
// to end on one trimmed benchmark: "fast" (reduced round budgets, no
// convergence cycles) and "wire-only" (cascade without TBSZ). CI requires
// both rows to be present (benchci -require), so a plan that stops
// synthesizing fails the gate rather than disappearing from the report;
// the 30% threshold gate on the unchanged default-plan benchmarks above
// doubles as the pipeline-overhead budget.
func BenchmarkPlanMatrix(b *testing.B) {
	bm := trimmed("ispd09f22", 40)
	for _, plan := range []string{"fast", "wire-only"} {
		b.Run(plan, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Synthesize(bm.Clone(), core.Options{Plan: plan, MaxRounds: 6, Cycles: 2})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Stages) == 0 || res.Final.Skew > res.Stages[0].Metrics.Skew {
					b.Fatalf("plan %s did not improve skew", plan)
				}
				if plan == "wire-only" {
					for _, st := range res.Stages {
						if st.Name == "TBSZ" {
							b.Fatal("wire-only plan ran TBSZ")
						}
					}
				}
			}
		})
	}
}

// BenchmarkCornerMatrix smokes the corner-set engine end to end on one
// trimmed contest benchmark: the five-corner pvt5 grid and a deterministic
// eight-sample Monte Carlo set. Each iteration synthesizes the same input
// twice under the same spec and fails on any metric divergence, so the CI
// bench gate (benchci -require) pins both "the corner sets still
// synthesize" and "mc metrics are seed-stable" — a variation run that
// stopped being reproducible fails the row instead of silently drifting.
func BenchmarkCornerMatrix(b *testing.B) {
	bm := trimmed("ispd09f22", 40)
	for _, spec := range []string{"pvt5", "mc:8:1"} {
		wantCorners := 5
		if spec != "pvt5" {
			wantCorners = 8
		}
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Corners: spec, MaxRounds: 2, Cycles: -1}
				r1, err := core.Synthesize(bm.Clone(), opts)
				if err != nil {
					b.Fatal(err)
				}
				r2, err := core.Synthesize(bm.Clone(), opts)
				if err != nil {
					b.Fatal(err)
				}
				if !reflect.DeepEqual(r1.Final, r2.Final) {
					b.Fatalf("corner set %s not deterministic:\n%+v\n%+v", spec, r1.Final, r2.Final)
				}
				if len(r1.Final.PerCorner) != wantCorners {
					b.Fatalf("corner set %s: %d per-corner rows, want %d", spec, len(r1.Final.PerCorner), wantCorners)
				}
				// Yield may legitimately be zero here (the trimmed cap
				// budget is violated on this instance, which gates every
				// sample); the quantiles still must be populated and
				// ordered.
				if f := r1.Final; spec != "pvt5" &&
					(f.LatP50 <= 0 || f.LatP95 < f.LatP50 || f.Yield < 0 || f.Yield > 1) {
					b.Fatalf("mc yield stats wrong: %+v", f)
				}
			}
		})
	}
}

func BenchmarkMazeRoute(b *testing.B) {
	die := geom.NewRect(0, 0, 10000, 10000)
	obs := geom.NewObstacleSet([]geom.Obstacle{
		{Rect: geom.NewRect(3000, 0, 4000, 8000)},
		{Rect: geom.NewRect(6000, 2000, 7000, 10000)},
	})
	m := geom.NewMaze(die, 50, obs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Route(geom.Pt(100, 5000), geom.Pt(9900, 5000)); err != nil {
			b.Fatal(err)
		}
	}
}
