package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/eval"
	"contango/internal/geom"
	"contango/internal/opt"
	"contango/internal/spice"
)

// StageRecord captures metrics after one flow stage (a Table III row
// entry). Convergence cycles record as their own CYCLE<n> stages, so the
// metric history in -json output and the contangod API is complete.
type StageRecord struct {
	Name    string
	Metrics eval.Metrics
	Runs    int // cumulative accurate-evaluation count
}

// state is the synthesis state shared by every pass in a pipeline. The
// embedded Result collects what the run reports: the benchmark, the tree,
// the stage-metric history and the construction counters. Around it sit
// the obstacle set and the armed optimization context (accurate
// evaluator). Tree stays nil until the first construction pass (zst or
// eco) builds it; every later pass edits the same arena.
type state struct {
	Result
	opts Options // resolved options (Options.Resolve)

	obs *geom.ObstacleSet
	// opt is the optimization-pass context around the accurate evaluator.
	// It is nil until ensureEval arms it, before the first cascade pass.
	opt *opt.Context
	// inc is the incremental evaluator behind opt (nil under FullEval).
	inc   *spice.Incremental
	armed bool

	// readMetrics, when set, replaces the evaluator read behind record and
	// the gate and cycle checks, so runner tests can script metrics.
	readMetrics func() (eval.Metrics, error)
}

// logf forwards to the options' Log hook when set.
func (s *state) logf(format string, args ...interface{}) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}

// ProgressPrefix marks per-pass pipeline progress lines emitted through
// the Log hook, so transports can route them to a dedicated event type —
// contangod's SSE stream forwards them as "pass" events instead of "log".
const ProgressPrefix = "pass "

// progressf emits a per-pass pipeline progress line (ProgressPrefix-tagged)
// through the Log hook.
func (s *state) progressf(format string, args ...interface{}) {
	s.logf(ProgressPrefix+format, args...)
}

// IsProgressLine reports whether a log line is a per-pass pipeline
// progress event.
func IsProgressLine(line string) bool { return strings.HasPrefix(line, ProgressPrefix) }

// arena returns the tree's arena, or nil before a construction pass built
// the tree.
func (s *state) arena() *ctree.Arena {
	if s.Tree == nil {
		return nil
	}
	return s.Tree.Arena()
}

// ensureEval arms the accurate evaluator exactly once. Cascade passes,
// cycle groups and gate predicates all trigger it.
func (s *state) ensureEval(ctx context.Context) error {
	if s.armed {
		return nil
	}
	// Arming runs the first full multi-corner evaluation (the INITIAL
	// record), which is where a job's corner-evaluation time concentrates —
	// bracket it so flow traces show it as its own phase.
	end := s.opts.span("eval", "corner_eval")
	err := s.arm(ctx)
	end()
	if err != nil {
		return err
	}
	s.armed = true
	return nil
}

// arm builds the accurate evaluator and the optimization context for the
// cascade passes, then records the INITIAL stage. The cascade passes
// (paper Fig. 1) check every IVC round with the accurate transient engine,
// exactly as the paper checks every round with SPICE. The incremental
// evaluator wraps the engine so each round re-simulates only the dirty
// cone of its mutations, with independent stages integrated concurrently —
// identical results, a fraction of the work.
func (s *state) arm(ctx context.Context) error {
	if s.Tree == nil {
		// A mis-ordered custom plan (an evaluated or gated pass before
		// zst) parses fine; fail the run cleanly instead of letting the
		// evaluator dereference a nil tree.
		return fmt.Errorf("plan needs a tree before pass evaluation (zst must run first)")
	}
	// Construction is done: drop the span garbage its edits left behind
	// before the cascade starts copying the arena into IVC snapshots.
	s.Tree.Arena().Compact()
	o := &s.opts
	var cne analysis.Evaluator = o.Engine
	if !o.FullEval {
		s.inc = spice.NewIncremental(s.Tree, o.Engine, o.Parallelism)
		cne = s.inc
	}
	if o.WrapEval != nil {
		// Scheduling shims (corner chunking with cooperative slot yields)
		// wrap the evaluator here; they must not change what is evaluated,
		// only when.
		cne = o.WrapEval(cne)
	}
	s.opt = &opt.Context{
		Tree: s.Tree, Eng: cne, Obs: s.obs, CapLimit: s.Benchmark.CapLimit,
		MaxRounds: o.MaxRounds, Log: o.Log, Check: ctx.Err,
	}
	return s.record("INITIAL")
}

// metrics returns the current metrics from the armed evaluator: a
// cached-CNE read, free when the last pass left a valid evaluation.
func (s *state) metrics() (eval.Metrics, error) {
	if s.readMetrics != nil {
		return s.readMetrics()
	}
	if s.opt == nil {
		return eval.Metrics{}, errors.New("core: metrics read before the evaluator was armed")
	}
	_, m, err := s.opt.Baseline()
	return m, err
}

// record appends a stage record named name: the current metrics plus the
// cumulative simulator run count — one Table III row.
func (s *state) record(name string) error {
	m, err := s.metrics()
	if err != nil {
		return err
	}
	rec := StageRecord{Name: name, Metrics: m}
	if s.opts.Engine != nil {
		rec.Runs = s.opts.Engine.Runs
	}
	s.Stages = append(s.Stages, rec)
	s.logf("%s: [%s] %s", s.Benchmark.Name, name, m)
	return nil
}

// lastMetrics returns the most recently recorded stage metrics.
func (s *state) lastMetrics() (eval.Metrics, bool) {
	if len(s.Stages) == 0 {
		return eval.Metrics{}, false
	}
	return s.Stages[len(s.Stages)-1].Metrics, true
}
