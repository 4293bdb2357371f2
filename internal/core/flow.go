// Package core orchestrates the Contango methodology (paper Figure 1):
// initial ZST/DME tree, obstacle avoidance, composite buffer insertion with
// sizing, sink-polarity correction, and the SPICE-driven optimization
// cascade — top-down buffer sizing (TBSZ), top-down wiresizing (TWSZ),
// top-down wiresnaking (TWSN) and bottom-level fine-tuning (BWSZ/BWSN) —
// each gated by Clock-Network Evaluation and Improvement- &
// Violation-Checking. The phases are registered as passes in the
// declarative pipeline engine (internal/flow); Synthesize resolves
// Options.Plan to a pass pipeline ("paper" — the exact cascade above — by
// default) and runs it. It also provides the contest-style baseline flows
// used for the paper's Table IV comparison.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"contango/internal/analysis"
	"contango/internal/bench"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/eval"
	"contango/internal/flow"
	"contango/internal/opt"
	"contango/internal/route"
	"contango/internal/spice"
	"contango/internal/tech"
)

// Options configures a synthesis run; it lives in internal/flow so the
// pipeline engine and the passes share one type, and is re-exported here
// for the public surface. The zero value is the paper's contest setup.
type Options = flow.Options

// StageRecord captures metrics after one flow stage (a Table III row).
type StageRecord = flow.StageRecord

// Result is the outcome of a synthesis run.
type Result struct {
	Benchmark *bench.Benchmark
	Tree      *ctree.Tree
	Stages    []StageRecord
	Final     eval.Metrics
	Runs      int // total accurate-evaluation invocations
	Elapsed   time.Duration

	// StageSims counts transient stage simulations actually integrated by
	// the cascade's incremental evaluator; StageReuses counts stage
	// transients served from its dirty-cone cache. Both are zero when
	// FullEval disabled the incremental path.
	StageSims   int
	StageReuses int

	Buffers        int
	InvertedSinks  int // before polarity correction (Table II)
	AddedInverters int // polarity-correcting inverters (Table II)
	Legalization   route.Report
	Composite      tech.Composite
}

// Synthesize runs the full Contango flow on a benchmark.
func Synthesize(b *bench.Benchmark, o Options) (*Result, error) {
	return SynthesizeContext(context.Background(), b, o)
}

// SynthesizeContext runs the synthesis pipeline selected by Options.Plan
// on a benchmark, honoring ctx: cancellation is checked between pipeline
// passes and before every improvement round of the optimization cascade,
// so a killed run stops burning simulator invocations promptly. On
// cancellation the context's error is returned and the partial tree is
// discarded.
func SynthesizeContext(ctx context.Context, b *bench.Benchmark, o Options) (*Result, error) {
	o = o.Resolve()
	plan, err := flow.ResolvePlan(o.Plan)
	if err != nil {
		return nil, err
	}
	// Resolve installs valid corner sets; an invalid spec survives it
	// verbatim, so re-validating here turns it into a clean error instead
	// of a silent fall-back to the default corners.
	if err := checkCornersApplied(o); err != nil {
		return nil, err
	}
	if err := checkEngine(o.Engine); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The SPICE-driven cascade passes (paper Fig. 1) check every IVC round
	// with the accurate transient engine, exactly as the paper checks every
	// round with SPICE. The incremental evaluator wraps the engine so each
	// round re-simulates only the dirty cone of its mutations, with
	// independent stages integrated concurrently — identical results, a
	// fraction of the work. The pipeline arms it lazily, right before the
	// first pass that needs evaluation, and records the INITIAL stage.
	var inc *spice.Incremental
	s := &flow.State{Opts: o, Bench: b}
	s.ArmEval = func(ctx context.Context, s *flow.State) error {
		// Arena-native construction materializes the pointer tree exactly
		// here: the first consumer that needs node graphs is the evaluator.
		if err := s.MaterializeTree(); err != nil {
			return err
		}
		if s.Tree == nil {
			// A mis-ordered custom plan (an evaluated or gated pass before
			// zst) parses fine; fail the run cleanly instead of letting the
			// evaluator dereference a nil tree.
			return fmt.Errorf("plan needs a tree before pass evaluation (zst must run first)")
		}
		var cne analysis.Evaluator = o.Engine
		if !o.FullEval {
			inc = spice.NewIncremental(s.Tree, o.Engine, o.Parallelism)
			cne = inc
		}
		if o.WrapEval != nil {
			// Scheduling shims (corner chunking with cooperative slot
			// yields) wrap the evaluator here; they must not change what is
			// evaluated, only when.
			cne = o.WrapEval(cne)
		}
		s.Opt = &opt.Context{
			Tree: s.Tree, Eng: cne, Obs: s.Obs, CapLimit: b.CapLimit,
			MaxRounds: o.MaxRounds, Parallelism: o.Parallelism,
			Log: o.Log, Check: ctx.Err,
		}
		return s.Record("INITIAL")
	}

	if err := flow.Run(ctx, s, plan); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	// A construction-only plan that never armed the evaluator still owes the
	// caller a pointer tree.
	if err := s.MaterializeTree(); err != nil {
		return nil, err
	}
	if s.Tree == nil {
		return nil, fmt.Errorf("plan %q built no tree", plan.Name)
	}
	if len(s.Stages) == 0 {
		// Construction-only plans still report measured metrics.
		if err := s.EnsureEval(ctx); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
	}

	res := &Result{
		Benchmark:      b,
		Tree:           s.Tree,
		Stages:         s.Stages,
		Final:          s.Stages[len(s.Stages)-1].Metrics,
		Runs:           o.Engine.Runs,
		Legalization:   s.Legalization,
		Composite:      s.Composite,
		InvertedSinks:  s.InvertedSinks,
		AddedInverters: s.AddedInverters,
	}
	if inc != nil {
		res.StageSims = inc.Stats.StagesSim
		res.StageReuses = inc.Stats.StagesHit
		s.Logf("%s: incremental CNE: %d stage sims, %d cache hits (%.0f%% reused)",
			b.Name, res.StageSims, res.StageReuses,
			100*float64(res.StageReuses)/float64(max1(res.StageSims+res.StageReuses)))
	}
	res.Buffers = len(s.Tree.Buffers())
	res.Elapsed = time.Since(start)
	if err := s.Tree.Validate(); err != nil {
		return nil, fmt.Errorf("final validation: %w", err)
	}
	return res, nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// checkCornersApplied verifies, on resolved options, that the requested
// corner set actually governs the run: the spec parses, and when it is
// non-default the resolved Tech carries it. The second check catches the
// silent-mismatch case — a caller handing in a Tech that already carries a
// *different* applied set (Resolve never re-derives generated sets from
// applied corners, so it cannot honor the request) — which must be an
// error, not a quiet run under the wrong corners.
func checkCornersApplied(o Options) error {
	if err := corners.Validate(o.Corners); err != nil {
		return err
	}
	if o.Corners != corners.DefaultName && o.Tech.CornerSpec != o.Corners {
		return fmt.Errorf("core: corner set %q cannot be applied: technology model already carries corner set %q",
			o.Corners, o.Tech.CornerSpec)
	}
	return nil
}

// checkEngine rejects transient-engine settings the integrator cannot run
// with, so a bad Options.Engine is an error rather than a panic inside a
// stage-simulation worker: the timestep Dt (it sizes every waveform) and
// the source slew (the input ramp divides by it) must be positive and
// finite; MaxSeg (0 selects the extractor default) and SettleTol must be
// non-negative and finite.
func checkEngine(eng *spice.Engine) error {
	bad := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) || x < 0 }
	switch {
	case bad(eng.Dt) || eng.Dt == 0:
		return fmt.Errorf("core: engine timestep Dt = %v ps; want a positive finite value", eng.Dt)
	case bad(eng.SourceSlew) || eng.SourceSlew == 0:
		return fmt.Errorf("core: engine SourceSlew = %v ps; want a positive finite value", eng.SourceSlew)
	case bad(eng.MaxSeg):
		return fmt.Errorf("core: engine MaxSeg = %v µm; want a non-negative finite value", eng.MaxSeg)
	case bad(eng.SettleTol):
		return fmt.Errorf("core: engine SettleTol = %v; want a non-negative finite value", eng.SettleTol)
	}
	return nil
}

// CNEOnly evaluates an existing tree at all corners of its installed
// corner set without modifying it (used by cmd/cnseval and tests).
func CNEOnly(tr *ctree.Tree, eng *spice.Engine, capLimit float64) (eval.Metrics, []*analysis.Result, error) {
	if eng == nil {
		eng = spice.New()
	}
	if err := checkEngine(eng); err != nil {
		return eval.Metrics{}, nil, err
	}
	rs, err := eng.EvaluateAll(tr)
	if err != nil {
		return eval.Metrics{}, nil, err
	}
	m, err := eval.FromResults(tr, corners.FromTech(tr.Tech), rs, capLimit)
	if err != nil {
		return eval.Metrics{}, nil, err
	}
	return m, rs, nil
}
