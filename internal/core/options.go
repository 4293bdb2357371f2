package core

import (
	"runtime"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/eco"
	"contango/internal/spice"
	"contango/internal/tech"
)

// Options configures a synthesis run. The zero value is the paper's
// contest setup.
type Options struct {
	// Tech defaults to tech.Default45().
	Tech *tech.Tech
	// Engine defaults to spice.New(). FastSim overrides it with coarser
	// settings suitable for very large instances (the paper's TI runs trade
	// accuracy knobs for runtime the same way).
	Engine  *spice.Engine
	FastSim bool
	// Gamma is the capacitance reserve for post-insertion optimization
	// (default 0.10, the paper's 10%).
	Gamma float64
	// LargeInverters switches the composite buffer ladder from batches of
	// 8 small inverters (the paper's contest configuration) to groups of
	// large inverters (its TI scalability configuration: ~8x faster,
	// slightly worse CLR and capacitance). See Ladder.
	LargeInverters bool
	// Plan selects the synthesis pipeline: a built-in plan name ("paper",
	// "fast", "wire-only", "tune-only", "no-cycles", "eco") or a plan-spec
	// string (see ParsePlan). Empty means "paper" — the exact pre-pipeline
	// flow. The plan is the one place a run is shaped: which passes run,
	// their round budgets ("twsz:4"; opt.DefaultMaxRounds when unpinned)
	// and the convergence cycle budget ("cycle(...)x2"; DefaultCycles when
	// unpinned).
	Plan string
	// Corners selects the PVT corner set the run is evaluated and
	// optimized across: "ispd09" (the technology's native pair — the
	// default and the exact legacy behavior), "pvt5" (five-corner PVT
	// envelope), or "mc:<n>:<seed>[:vsigma[:rsigma[:csigma]]]" (n
	// deterministic Monte Carlo variation samples). Non-default sets are
	// installed on a clone of Tech during Resolve, so a shared technology
	// model is never mutated.
	Corners string
	// ECO, when non-nil, supplies the base tree and delta the "eco"
	// construction pass replays instead of building from scratch: the pass
	// restores the base run's synthesized tree into an arena, applies the
	// delta with locality-scoped repair, and hands the result to the
	// tuning cascade. The benchmark submitted alongside must be the
	// delta-perturbed one (eco.Delta.Perturb), so sink sets agree. ECO
	// shapes results, and the service keys it by base key + delta
	// fingerprint — appended to the fingerprint only when set, so default
	// keys stay byte-identical.
	ECO *eco.Spec
	// Parallelism is the worker budget for concurrent stage simulations in
	// the optimization cascade's incremental evaluator, for DME subtree
	// merging and for the composite sweep's candidates (0 = GOMAXPROCS,
	// 1 = serial). It changes wall-clock time only, never results.
	Parallelism int
	// Log receives progress lines when non-nil.
	Log func(format string, args ...interface{})
	// SpanHook, when non-nil, brackets instrumented flow phases: it is
	// called with the phase kind ("pass" for an executed pipeline pass,
	// "eval" for arming the accurate evaluator) and the phase name when the
	// phase starts, and the func it returns is called when the phase ends.
	// The service layer uses it to build per-job flow traces and per-pass
	// duration histograms. Like Log it is a hook, so it never participates
	// in result-cache keys.
	SpanHook func(kind, name string) func()
	// WrapEval, when non-nil, wraps the accurate evaluator (the incremental
	// engine over Engine) right before the optimization context is armed.
	// The service's packing scheduler uses it to install a corner-chunking
	// shim that yields the worker slot between chunks of a large sweep, and
	// parity tests substitute the whole-tree Engine itself. The contract:
	//   - the returned Evaluator must give the same results for the same
	//     calls, in corner order: a wrapper may split, time or trace
	//     evaluations but never change them;
	//   - every cascade CNE reaches it through EvaluateCorners, with all
	//     of the tree's corners in one call;
	//   - it is called once per run, on the run's goroutine, and the
	//     evaluator it returns is never called concurrently;
	//   - the worker budget is already set on the wrapped evaluator
	//     (Parallelism), so a wrapper has nothing to pass along.
	// Like Log and SpanHook, WrapEval never participates in result-cache
	// keys.
	WrapEval func(analysis.Evaluator) analysis.Evaluator
}

// span opens an instrumented phase through SpanHook and returns the func
// that closes it (a no-op when no hook is installed).
func (o *Options) span(kind, name string) func() {
	if o.SpanHook == nil {
		return func() {}
	}
	return o.SpanHook(kind, name)
}

// Resolve returns a copy of the options with every defaulted knob made
// explicit: technology model, engine, capacitance reserve, worker budget, and the plan canonicalized to its expanded spec string. The flow
// itself runs on resolved options and the service layer fingerprints them
// for its result cache, so the two can never disagree about what a zero
// value means. Resolution is idempotent.
func (o Options) Resolve() Options {
	o.fill()
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Plan == "" {
		o.Plan = DefaultPlanName
	}
	// Canonicalize the plan to its expanded spec, so a named plan and its
	// spelled-out equivalent fingerprint identically. Invalid specs are
	// left verbatim; the run (or the service's submit validation) reports
	// the parse error.
	if p, err := ResolvePlan(o.Plan); err == nil {
		o.Plan = p.String()
	}
	// Canonicalize the corner-set spec and install non-default sets on a
	// clone of the technology model. The default set ("ispd09") leaves
	// Tech untouched — bit-for-bit the legacy two-corner behavior, which
	// is what keeps default result-cache keys and the benchci baseline
	// stable. Invalid specs are left verbatim for the run (or the
	// service's submit validation) to report.
	o.Corners = corners.Canon(o.Corners)
	if o.Corners != corners.DefaultName && o.Tech.CornerSpec != o.Corners {
		// Generated sets derive from the native corner envelope; a Tech
		// that already carries an applied set is never re-derived (the
		// CornerSpec match above is what makes Resolve idempotent).
		if set, err := corners.Build(o.Corners, o.Tech); err == nil && o.Tech.CornerSpec == "" {
			o.Tech = set.Apply(o.Tech)
		}
	}
	return o
}

func (o *Options) fill() {
	if o.Tech == nil {
		o.Tech = tech.Default45()
	}
	if o.Engine == nil {
		o.Engine = spice.New()
		if o.FastSim {
			o.Engine.MaxSeg = 250
			o.Engine.Dt = 2
		}
	}
	if o.Gamma == 0 {
		o.Gamma = 0.10
	}
}

// Ladder returns the composite buffer ladder the run sizes its buffers
// from, weakest first: groups of large inverters with LargeInverters,
// else batches of 8 small inverters. It reads Tech, so call it on
// resolved options.
func (o *Options) Ladder() []tech.Composite {
	if o.LargeInverters {
		return o.Tech.BatchLadder("Large", 1)
	}
	return o.Tech.BatchLadder("Small", 8)
}
