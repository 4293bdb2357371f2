package core

import (
	"fmt"
	"time"

	"contango/internal/bench"
	"contango/internal/buffering"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/tech"
)

// BaselineKind selects one of the contest-style comparison flows used to
// reproduce the shape of the paper's Table IV. Each stands in for a
// one-shot constructor without Contango's SPICE-driven refinement cascade,
// the way the contest entries from NTU, NCTU and U. of Michigan did.
type BaselineKind int

const (
	// BaselineNoOpt is Contango's own initial buffered tree with no
	// SPICE-driven passes: exact-zero-skew DME plus composite buffering.
	BaselineNoOpt BaselineKind = iota
	// BaselineGreedy is a greedy midpoint-topology tree (no Elmore
	// balancing) with single-configuration buffering.
	BaselineGreedy
	// BaselineBST is a bounded-skew construction: balanced taps quantized
	// to a coarse grid and no wire elongation, with composite buffering.
	BaselineBST
)

func (k BaselineKind) String() string {
	switch k {
	case BaselineGreedy:
		return "greedy"
	case BaselineBST:
		return "bst"
	default:
		return "noopt"
	}
}

// SynthesizeBaseline runs one of the baseline flows: construct, legalize,
// buffer, fix polarity, evaluate — no optimization cascade.
func SynthesizeBaseline(b *bench.Benchmark, kind BaselineKind, o Options) (*Result, error) {
	o = o.Resolve()
	if err := checkCornersApplied(o); err != nil {
		return nil, err
	}
	if err := checkEngine(o.Engine); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Benchmark: b}

	var dopt dme.Options
	switch kind {
	case BaselineGreedy:
		dopt.NoBalance = true
	case BaselineBST:
		dopt.NoSnake = true
		dopt.TapQuantum = 250
	}
	dopt.Parallelism = o.Parallelism
	a := dme.BuildZSTArena(o.Tech, b.Source, b.Sinks, dopt)
	a.SourceR = b.SourceR

	obs := geom.NewObstacleSet(b.Obstacles)
	ladder := o.Ladder()
	rep, err := route.LegalizeArena(a, obs, b.Die, route.Options{SafeCap: buffering.SafeLoad(o.Tech, ladder[0])})
	if err != nil {
		return nil, fmt.Errorf("legalize: %w", err)
	}
	res.Legalization = *rep

	if kind == BaselineGreedy {
		// Single mid-strength configuration, no sweep.
		ladder = []tech.Composite{ladder[len(ladder)/2]}
	}
	sweep, err := buffering.InsertBestCompositeArena(a, ladder, b.CapLimit, o.Gamma,
		buffering.Options{Obs: obs, Parallelism: o.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("buffering: %w", err)
	}
	res.Composite = sweep.Composite
	res.InvertedSinks = len(buffering.InvertedSinksArena(a))
	res.AddedInverters = buffering.CorrectPolarityArena(a, sweep.Composite, obs)
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("baseline %v: %w", kind, err)
	}
	a.Compact()
	res.Tree = ctree.NewTree(a)

	m, _, err := CNEOnly(res.Tree, o.Engine, b.CapLimit)
	if err != nil {
		return nil, err
	}
	res.Stages = []StageRecord{{Name: "BASELINE-" + kind.String(), Metrics: m, Runs: o.Engine.Runs}}
	res.Final = m
	res.Runs = o.Engine.Runs
	res.Buffers = countBuffers(a)
	res.Elapsed = time.Since(start)
	return res, nil
}
