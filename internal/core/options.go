package core

import (
	"runtime"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/eco"
	"contango/internal/opt"
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
	// Ladder overrides the composite buffer ladder (default: batches of 8
	// small inverters, the paper's contest configuration).
	Ladder []tech.Composite
	// LargeInverters switches the ladder to groups of large inverters (the
	// paper's TI scalability configuration: ~8x faster, slightly worse CLR
	// and capacitance).
	LargeInverters bool
	// MaxRounds bounds each optimization pass (default 10). A plan step's
	// own round budget ("twsz:4") overrides it for that step.
	MaxRounds int
	// Plan selects the synthesis pipeline: a built-in plan name ("paper",
	// "fast", "wire-only", "tune-only", "no-cycles") or a plan-spec string
	// (see ParsePlan). Empty means "paper" — the exact pre-pipeline flow.
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
	// SkipStages disables individual cascade passes by name ("tbsz",
	// "twsz", "twsn", "bwsn") for ablations, whatever plan runs. Any other
	// name is an error (CheckSkipStages).
	SkipStages map[string]bool
	// BufferStep is the candidate spacing for buffer insertion (µm);
	// 0 = default.
	BufferStep float64
	// Cycles is the number of extra wire-pass convergence cycles after the
	// named cascade (0 = default 3; each costs one recalibration). A
	// negative value disables convergence cycles entirely — unlike the
	// zero value, which keeps the paper's default.
	Cycles int
	// Parallelism is the worker budget for concurrent stage simulations in
	// the optimization cascade's incremental evaluator (0 = GOMAXPROCS,
	// 1 = serial). It changes wall-clock time only, never results.
	Parallelism int
	// FullEval forces whole-tree re-evaluation for every CNE instead of
	// the incremental per-stage cache — the reference path the incremental
	// engine is validated against. Identical results, much slower.
	FullEval bool
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
	// engine, or Engine itself under FullEval) right before the optimization
	// context is armed. The service's packing scheduler uses it to install a
	// corner-chunking shim that yields the worker slot between chunks of a
	// large sweep. Wrappers must preserve evaluation semantics exactly —
	// same results for the same calls — which is why, like Log and SpanHook,
	// WrapEval never participates in result-cache keys.
	WrapEval func(analysis.Evaluator) analysis.Evaluator
}

// defaultCycles is the extra wire-pass convergence budget when unset.
const defaultCycles = 3

// noCycles is the canonical resolved value for "convergence cycles
// disabled". Resolve maps every negative Cycles to it so resolution is
// idempotent: 0 means "defaulted" only on unresolved options.
const noCycles = -1

// span opens an instrumented phase through SpanHook and returns the func
// that closes it (a no-op when no hook is installed).
func (o *Options) span(kind, name string) func() {
	if o.SpanHook == nil {
		return func() {}
	}
	return o.SpanHook(kind, name)
}

// extraCycles returns the effective convergence-cycle budget: the default
// when unset, zero when explicitly disabled.
func (o *Options) extraCycles() int {
	switch {
	case o.Cycles < 0:
		return 0
	case o.Cycles == 0:
		return defaultCycles
	default:
		return o.Cycles
	}
}

// Resolve returns a copy of the options with every defaulted knob made
// explicit: technology model, engine, capacitance reserve, ladder, round
// and cycle budgets, and the plan canonicalized to its expanded spec
// string. The flow itself runs on resolved options and the service layer
// fingerprints them for its result cache, so the two can never disagree
// about what a zero value means. Resolution is idempotent; note that a
// resolved Cycles is either the positive budget or -1 for "disabled".
func (o Options) Resolve() Options {
	o.fill()
	if o.MaxRounds <= 0 {
		o.MaxRounds = opt.DefaultMaxRounds
	}
	if o.Cycles == 0 {
		o.Cycles = defaultCycles
	} else if o.Cycles < 0 {
		o.Cycles = noCycles
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Plan == "" {
		o.Plan = DefaultPlanName
	}
	// Canonicalize the skip set (on a copy — the caller's map is shared)
	// so the runtime skip lookup and the service's cache-key fingerprint
	// can never disagree about e.g. {"TBSZ": true} vs {"tbsz": true}.
	if len(o.SkipStages) > 0 {
		canon := make(map[string]bool, len(o.SkipStages))
		for name, on := range o.SkipStages {
			if on {
				canon[Canon(name)] = true
			}
		}
		o.SkipStages = canon
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
	if len(o.Ladder) == 0 {
		if o.LargeInverters {
			o.Ladder = o.Tech.BatchLadder("Large", 1)
		} else {
			o.Ladder = o.Tech.BatchLadder("Small", 8)
		}
	}
}
