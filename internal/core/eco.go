package core

import (
	"context"
	"fmt"

	"contango/internal/buffering"
	"contango/internal/ctree"
	"contango/internal/eco"
	"contango/internal/geom"
)

// passECO is the construction prelude of incremental re-synthesis (the
// "eco" plan): instead of building a tree from scratch it restores
// a copy of Options.ECO's base tree and replays the delta against it with
// locality-scoped repair. The tuning cascade then runs on the
// repaired tree exactly as it would after a full construction. The
// submitted benchmark must be the delta-perturbed base benchmark (eco.Delta.Perturb) — the pass cross-checks the sink count so
// a mismatched (base, delta, benchmark) triple fails loudly instead of
// synthesizing against the wrong netlist.
func passECO(ctx context.Context, s *state) error {
	spec := s.opts.ECO
	if spec == nil || spec.Base == nil || spec.Delta == nil {
		return fmt.Errorf("eco pass needs Options.ECO with a base tree and a delta")
	}
	if s.Tree != nil {
		return fmt.Errorf("eco pass must be the first construction pass (a tree already exists)")
	}
	obs := geom.NewObstacleSet(s.Benchmark.Obstacles)
	s.obs = obs

	// Restore: copy the base tree (decoded from the result envelope) with a
	// clean mutation journal, so the journal scopes exactly the delta's
	// edits; the cached base is never mutated.
	endRestore := s.opts.span("eco", "restore")
	a := spec.Base.Arena().Clone()
	a.Dirty.Reset()
	eco.ReserveFor(a, spec.Delta)
	endRestore()

	comp := spec.Composite
	if comp.N == 0 {
		comp = s.opts.Ladder()[0]
	}
	endApply := s.opts.span("eco", "apply")
	rep, err := eco.Apply(a, spec.Delta, eco.Config{
		Composite: comp,
		Obs:       obs,
		Die:       s.Benchmark.Die,
		SafeCap:   buffering.SafeLoad(s.opts.Tech, comp),
	})
	endApply()
	if err != nil {
		return fmt.Errorf("eco apply: %w", err)
	}

	sinks := 0
	for i := 0; i < a.Len(); i++ {
		if a.Alive.Test(i) && a.Kind[i] == ctree.Sink {
			sinks++
		}
	}
	if sinks != len(s.Benchmark.Sinks) {
		return fmt.Errorf("eco: tree has %d sinks after the delta but the benchmark has %d (submit the delta-perturbed benchmark)",
			sinks, len(s.Benchmark.Sinks))
	}

	s.Tree = ctree.NewTree(a)
	s.Composite = comp
	s.Legalization = rep.Legalization
	s.AddedInverters = rep.AddedInverters
	s.logf("%s: %s", s.Benchmark.Name, rep)
	return nil
}
