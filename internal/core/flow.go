// Package core orchestrates the Contango methodology (paper Figure 1):
// initial ZST/DME tree, obstacle avoidance, composite buffer insertion with
// sizing, sink-polarity correction, and the SPICE-driven optimization
// cascade — top-down buffer sizing (TBSZ), top-down wiresizing (TWSZ),
// top-down wiresnaking (TWSN) and bottom-level fine-tuning (BWSZ/BWSN) —
// each gated by Clock-Network Evaluation and Improvement- &
// Violation-Checking. The phases are the entries of one static pass
// table, and a Plan is an ordered list of pass steps with per-pass round
// budgets, gate predicates and convergence cycle groups. Named built-in
// plans ("paper" — the exact cascade above — "fast", "wire-only",
// "tune-only", "no-cycles", "eco") plus a compact plan-spec grammar
// (ParsePlan) express ablations and alternative cascades; Synthesize
// resolves Options.Plan and runs it. The package also provides the
// contest-style baseline flows used for the paper's Table IV comparison.
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
	"contango/internal/route"
	"contango/internal/spice"
	"contango/internal/tech"
)

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
	plan, err := ResolvePlan(o.Plan)
	if err != nil {
		return nil, err
	}
	if err := CheckSkipStages(o.SkipStages); err != nil {
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

	// The pipeline arms the accurate evaluator lazily, right before the
	// first pass that needs evaluation, and records the INITIAL stage.
	s := &state{Result: Result{Benchmark: b}, opts: o}
	if err := runPlan(ctx, s, plan); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	if s.Tree == nil {
		return nil, fmt.Errorf("plan %q built no tree", plan.Name)
	}
	if len(s.Stages) == 0 {
		// Construction-only plans still report measured metrics.
		if err := s.ensureEval(ctx); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
	}

	res := s.Result
	res.Final = s.Stages[len(s.Stages)-1].Metrics
	res.Runs = o.Engine.Runs
	if inc := s.inc; inc != nil {
		res.StageSims = inc.Stats.StagesSim
		res.StageReuses = inc.Stats.StagesHit
		s.logf("%s: incremental CNE: %d stage sims, %d cache hits (%.0f%% reused)",
			b.Name, res.StageSims, res.StageReuses,
			100*float64(res.StageReuses)/float64(max1(res.StageSims+res.StageReuses)))
	}
	res.Buffers = countBuffers(s.Tree.Arena())
	res.Elapsed = time.Since(start)
	if err := res.Tree.Validate(); err != nil {
		return nil, fmt.Errorf("final validation: %w", err)
	}
	return &res, nil
}

// countBuffers returns the number of buffers in the tree a.
func countBuffers(a *ctree.Arena) int {
	n := 0
	a.PreOrder(func(i int32) {
		if a.Kind[i] == ctree.Buffer {
			n++
		}
	})
	return n
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
	a := tr.Arena()
	m, err := eval.FromResults(a, corners.FromTech(a.Tech), rs, capLimit)
	if err != nil {
		return eval.Metrics{}, nil, err
	}
	return m, rs, nil
}
