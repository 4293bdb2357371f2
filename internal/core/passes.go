package core

import (
	"context"
	"errors"
	"fmt"

	"contango/internal/buffering"
	"contango/internal/dme"
	"contango/internal/flow"
	"contango/internal/geom"
	"contango/internal/opt"
	"contango/internal/route"
)

// The paper's phases register as pipeline passes (flow package): four
// construction passes that build the tree, and four SPICE-driven cascade
// passes that run against the armed accurate evaluator. Plans compose
// them by name; "paper" reproduces the pre-pipeline hard-coded flow.
func init() {
	flow.Register(flow.Registration{Pass: flow.NewPass("zst", passZST)})
	flow.Register(flow.Registration{Pass: flow.NewPass("legalize", passLegalize)})
	flow.Register(flow.Registration{Pass: flow.NewPass("buffer", passBuffer)})
	flow.Register(flow.Registration{Pass: flow.NewPass("polarity", passPolarity)})
	flow.Register(flow.Registration{Pass: flow.NewPass("tbsz", optPass(opt.BufferSizing)),
		Optional: true, Record: true, NeedsEval: true})
	// Wiresizing includes the skew-directed buffer downsizing (both are
	// sizing steps); wiresnaking is preceded by the pair-insertion
	// equalizer, which does the coarse slow-down that snaking refines.
	flow.Register(flow.Registration{Pass: flow.NewPass("twsz", optPass(passSizing)),
		Optional: true, Record: true, NeedsEval: true})
	flow.Register(flow.Registration{Pass: flow.NewPass("twsn", optPass(passSnaking)),
		Optional: true, Record: true, NeedsEval: true})
	flow.Register(flow.Registration{Pass: flow.NewPass("bwsn", optPass(opt.BottomLevelTuning)),
		Optional: true, Record: true, NeedsEval: true})
}

// passZST builds the initial zero-skew tree (ZST/DME) straight into the SoA
// arena: flat merge segments, slots reserved up front from the benchmark's
// sink count, parallel subtree merging.
func passZST(ctx context.Context, s *flow.State) error {
	b := s.Bench
	a := dme.BuildZSTArena(s.Opts.Tech, b.Source, b.Sinks,
		dme.Options{Parallelism: s.Opts.Parallelism})
	a.SourceR = b.SourceR
	s.Arena = a
	s.Logf("%s: ZST built (arena), %d sinks, wirelength %.0f µm", b.Name, len(b.Sinks), a.Wirelength())
	return nil
}

// errNoTree reports a construction pass that ran before zst. ParsePlan
// accepts such plans (they name construction passes); the run fails here.
var errNoTree = errors.New("no tree yet (the zst pass must run first)")

// passLegalize repairs obstacle violations. The slew-free capacitance used
// for the detour decision matches the workhorse composite the insertion
// phase will actually place (the ladder's first rung).
func passLegalize(ctx context.Context, s *flow.State) error {
	a := s.Arena
	if a == nil {
		return errNoTree
	}
	obs := geom.NewObstacleSet(s.Bench.Obstacles)
	s.Obs = obs
	safeCap := buffering.SafeLoad(s.Opts.Tech, s.Opts.Ladder[0])
	rep, err := route.LegalizeArena(a, obs, s.Bench.Die, route.Options{SafeCap: safeCap})
	if err != nil {
		return err
	}
	s.Legalization = *rep
	s.Logf("%s: legalized (%v)", s.Bench.Name, rep)
	return nil
}

// passBuffer runs composite buffer insertion with sizing (90% of the power
// budget).
func passBuffer(ctx context.Context, s *flow.State) error {
	a := s.Arena
	if a == nil {
		return errNoTree
	}
	b := s.Bench
	sweep, err := buffering.InsertBestCompositeArena(a, s.Opts.Ladder, b.CapLimit, s.Opts.Gamma,
		buffering.Options{Obs: s.Obs, Step: s.Opts.BufferStep})
	if err != nil {
		return err
	}
	s.Composite = sweep.Composite
	s.Logf("%s: inserted %d x %v, cap %.1f%% of limit", b.Name, sweep.Added,
		sweep.Composite, 100*sweep.TotalCap/b.CapLimit)
	return nil
}

// passPolarity corrects sink polarity (Proposition 2). Correcting
// inverters use a half-strength composite: their input capacitance lands
// on stages already near their load target.
func passPolarity(ctx context.Context, s *flow.State) error {
	a := s.Arena
	if a == nil {
		return errNoTree
	}
	polComp := s.Composite
	if polComp.N == 0 {
		// A plan that skipped insertion still corrects with the ladder's
		// workhorse rung.
		polComp = s.Opts.Ladder[0]
	}
	if half := polComp.N / 2; half >= 1 {
		polComp.N = half
	}
	s.InvertedSinks = len(buffering.InvertedSinksArena(a))
	s.AddedInverters = buffering.CorrectPolarityArena(a, polComp, s.Obs)
	s.Logf("%s: %d inverted sinks fixed with %d inverters", s.Bench.Name,
		s.InvertedSinks, s.AddedInverters)
	return a.Validate()
}

// optPass adapts a SPICE-driven optimization pass to the pipeline. The
// runner arms the evaluator (NeedsEval) before these run; cancellation is
// consulted by the pass itself before every improvement round via
// opt.Context.Check.
func optPass(f func(*opt.Context) error) flow.RunFunc {
	return func(ctx context.Context, s *flow.State) error {
		if s.Opt == nil {
			return fmt.Errorf("evaluator not armed")
		}
		return f(s.Opt)
	}
}

func passSizing(cx *opt.Context) error {
	if err := opt.TopDownWiresizing(cx); err != nil {
		return err
	}
	return opt.SkewBufferSizing(cx)
}

func passSnaking(cx *opt.Context) error {
	if err := opt.PairInsertion(cx); err != nil {
		return err
	}
	return opt.TopDownWiresnaking(cx)
}
