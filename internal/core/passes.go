package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"contango/internal/buffering"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/opt"
	"contango/internal/route"
)

// pass is one entry of the pass table: a named step plans compose.
type pass struct {
	name string
	run  func(ctx context.Context, s *state) error
	// cascade marks the SPICE-checked passes. They run against the armed
	// accurate evaluator, honor Options.SkipStages and record a Table III
	// row. The other passes build the tree before the evaluator is armed.
	cascade bool
}

// passes is the pass table, in the paper's Fig. 1 order: the construction
// passes that build the tree ("eco" replaces all four by restoring a
// finished one), then the four cascade passes. Plans compose them by name;
// "paper" reproduces the pre-pipeline hard-coded flow.
var passes = []pass{
	{name: "zst", run: passZST},
	{name: "legalize", run: passLegalize},
	{name: "buffer", run: passBuffer},
	{name: "polarity", run: passPolarity},
	{name: "eco", run: passECO},
	{name: "tbsz", run: optPass(opt.BufferSizing), cascade: true},
	// Wiresizing includes the skew-directed buffer downsizing (both are
	// sizing steps); wiresnaking is preceded by the pair-insertion
	// equalizer, which does the coarse slow-down that snaking refines.
	{name: "twsz", run: optPass(passSizing), cascade: true},
	{name: "twsn", run: optPass(passSnaking), cascade: true},
	{name: "bwsn", run: optPass(opt.BottomLevelTuning), cascade: true},
}

// lookupPass returns the table entry for a canonical pass name, or nil.
func lookupPass(name string) *pass {
	for i := range passes {
		if passes[i].name == name {
			return &passes[i]
		}
	}
	return nil
}

// isConstruction reports whether name is a construction pass.
func isConstruction(name string) bool {
	p := lookupPass(name)
	return p != nil && !p.cascade
}

// passNames lists the table's pass names in order; cascadeOnly keeps just
// the cascade passes.
func passNames(cascadeOnly bool) []string {
	var names []string
	for _, p := range passes {
		if p.cascade || !cascadeOnly {
			names = append(names, p.name)
		}
	}
	return names
}

// CheckSkipStages rejects a skip set that sets anything but a cascade
// pass. Only cascade passes can be skipped, and every set name enters the
// result-cache key, so a typo or a construction pass would otherwise run
// the full plan under a cache slot of its own. Names mapped to false skip
// nothing and are ignored, as Resolve drops them.
func CheckSkipStages(skip map[string]bool) error {
	var bad []string
	for name, on := range skip {
		if p := lookupPass(Canon(name)); on && (p == nil || !p.cascade) {
			bad = append(bad, strconv.Quote(name))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("core: cannot skip %s (skippable stages: %s)",
		strings.Join(bad, ", "), strings.Join(passNames(true), ", "))
}

// passZST builds the initial zero-skew tree (ZST/DME) straight into the SoA
// arena: flat merge segments, slots reserved up front from the benchmark's
// sink count, parallel subtree merging.
func passZST(ctx context.Context, s *state) error {
	b := s.Benchmark
	a := dme.BuildZSTArena(s.opts.Tech, b.Source, b.Sinks,
		dme.Options{Parallelism: s.opts.Parallelism})
	a.SourceR = b.SourceR
	s.Tree = ctree.NewTree(a)
	s.logf("%s: ZST built (arena), %d sinks, wirelength %.0f µm", b.Name, len(b.Sinks), a.Wirelength())
	return nil
}

// errNoTree reports a construction pass that ran before zst. ParsePlan
// accepts such plans (they name construction passes); the run fails here.
var errNoTree = errors.New("no tree yet (the zst pass must run first)")

// passLegalize repairs obstacle violations. The slew-free capacitance used
// for the detour decision matches the workhorse composite the insertion
// phase will actually place (the ladder's first rung).
func passLegalize(ctx context.Context, s *state) error {
	a := s.arena()
	if a == nil {
		return errNoTree
	}
	obs := geom.NewObstacleSet(s.Benchmark.Obstacles)
	s.obs = obs
	safeCap := buffering.SafeLoad(s.opts.Tech, s.opts.Ladder[0])
	rep, err := route.LegalizeArena(a, obs, s.Benchmark.Die, route.Options{SafeCap: safeCap})
	if err != nil {
		return err
	}
	s.Legalization = *rep
	s.logf("%s: legalized (%v)", s.Benchmark.Name, rep)
	return nil
}

// passBuffer runs composite buffer insertion with sizing (90% of the power
// budget).
func passBuffer(ctx context.Context, s *state) error {
	a := s.arena()
	if a == nil {
		return errNoTree
	}
	b := s.Benchmark
	sweep, err := buffering.InsertBestCompositeArena(a, s.opts.Ladder, b.CapLimit, s.opts.Gamma,
		buffering.Options{Obs: s.obs, Parallelism: s.opts.Parallelism})
	if err != nil {
		return err
	}
	s.Composite = sweep.Composite
	s.logf("%s: inserted %d x %v, cap %.1f%% of limit", b.Name, sweep.Added,
		sweep.Composite, 100*sweep.TotalCap/b.CapLimit)
	return nil
}

// passPolarity corrects sink polarity (Proposition 2). Correcting
// inverters use a half-strength composite: their input capacitance lands
// on stages already near their load target.
func passPolarity(ctx context.Context, s *state) error {
	a := s.arena()
	if a == nil {
		return errNoTree
	}
	polComp := s.Composite
	if polComp.N == 0 {
		// A plan that skipped insertion still corrects with the ladder's
		// workhorse rung.
		polComp = s.opts.Ladder[0]
	}
	if half := polComp.N / 2; half >= 1 {
		polComp.N = half
	}
	s.InvertedSinks = len(buffering.InvertedSinksArena(a))
	s.AddedInverters = buffering.CorrectPolarityArena(a, polComp, s.obs)
	s.logf("%s: %d inverted sinks fixed with %d inverters", s.Benchmark.Name,
		s.InvertedSinks, s.AddedInverters)
	return a.Validate()
}

// optPass adapts a SPICE-driven optimization pass to the pipeline. The
// runner arms the evaluator before every cascade pass; cancellation is
// consulted by the pass itself before every improvement round via
// opt.Context.Check.
func optPass(f func(*opt.Context) error) func(context.Context, *state) error {
	return func(ctx context.Context, s *state) error {
		return f(s.opt)
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
