package core

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// cycleMinGain is the skew/CLR improvement (ps) a convergence cycle must
// deliver to earn another cycle — the paper's feedback-arrow stop rule.
const cycleMinGain = 0.05

// runPlan executes a plan over the shared state: passes run in order,
// cascade passes honor Options.SkipStages, gated passes consult their
// predicate, and cycle groups repeat until the improvement check fails or
// the budget runs out. Cancellation is checked between steps (and by the armed
// evaluator before every improvement round); the context's error is
// returned verbatim so callers can test against it.
func runPlan(ctx context.Context, s *state, p Plan) error {
	total := len(p.Steps)
	for i, st := range p.Steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := runStep(ctx, s, st, i+1, total, true); err != nil {
			return err
		}
	}
	return nil
}

// runStep executes one plan step. record=false suppresses the per-pass
// StageRecord (used inside cycle groups, which record one CYCLE<n> row per
// cycle instead).
func runStep(ctx context.Context, s *state, st Step, idx, total int, record bool) error {
	if st.Cycle != nil {
		return runCycle(ctx, s, st, idx, total)
	}
	p := lookupPass(st.Pass)
	if p == nil {
		return fmt.Errorf("core: unknown pass %q", st.Pass)
	}
	if p.cascade && s.opts.SkipStages[st.Pass] {
		s.progressf("%d/%d %s: skipped", idx, total, st.Pass)
		return nil
	}
	if p.cascade || st.Gate != nil {
		if err := s.ensureEval(ctx); err != nil {
			return err
		}
	}
	if st.Gate != nil {
		m, err := s.metrics()
		if err != nil {
			return err
		}
		if !st.Gate.Admit(m) {
			s.progressf("%d/%d %s: gated off (%s)", idx, total, st.Pass, st.Gate)
			return nil
		}
	}
	if st.Rounds > 0 && s.opt != nil {
		saved := s.opt.MaxRounds
		s.opt.MaxRounds = st.Rounds
		defer func() { s.opt.MaxRounds = saved }()
	}
	s.progressf("%d/%d %s: start", idx, total, st.Pass)
	t0 := time.Now()
	// The span brackets only the pass body: skipped and gated-off passes
	// never reach here, and a failing pass still closes its span before
	// the error propagates.
	end := s.opts.span("pass", st.Pass)
	err := p.run(ctx, s)
	end()
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%s: %w", st.Pass, err)
	}
	if record && p.cascade {
		if err := s.record(strings.ToUpper(st.Pass)); err != nil {
			return err
		}
	}
	s.progressf("%d/%d %s: done in %s", idx, total, st.Pass, time.Since(t0).Round(time.Millisecond))
	return nil
}

// runCycle executes a convergence group: run the member passes, then
// recalibrate (each recalibration re-anchors the hybrid, so the residual
// model error shrinks geometrically), record the cycle as its own
// CYCLE<n> stage, and stop once neither skew nor CLR improved.
func runCycle(ctx context.Context, s *state, st Step, idx, total int) error {
	if err := s.ensureEval(ctx); err != nil {
		return err
	}
	budget := st.Repeat
	if budget == 0 {
		budget = s.opts.extraCycles()
	}
	label := st.String()
	for cycle := 0; cycle < budget; cycle++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		before, ok := s.lastMetrics()
		if !ok {
			m, err := s.metrics()
			if err != nil {
				return err
			}
			before = m
		}
		s.progressf("%d/%d %s: cycle %d/%d", idx, total, label, cycle+1, budget)
		for _, inner := range st.Cycle {
			if err := runStep(ctx, s, inner, idx, total, false); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("cycle %d: %w", cycle, err)
			}
		}
		if err := s.record(fmt.Sprintf("CYCLE%d", cycle+1)); err != nil {
			return err
		}
		m := s.Stages[len(s.Stages)-1].Metrics
		if !(m.Skew < before.Skew-cycleMinGain || m.CLR < before.CLR-cycleMinGain) {
			break
		}
	}
	return nil
}
