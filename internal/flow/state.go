package flow

import (
	"context"
	"errors"
	"strings"

	"contango/internal/bench"
	"contango/internal/ctree"
	"contango/internal/eval"
	"contango/internal/geom"
	"contango/internal/opt"
	"contango/internal/route"
	"contango/internal/tech"
)

// StageRecord captures metrics after one flow stage (a Table III row
// entry). Convergence cycles record as their own CYCLE<n> stages, so the
// metric history in -json output and the contangod API is complete.
type StageRecord struct {
	Name    string
	Metrics eval.Metrics
	Runs    int // cumulative accurate-evaluation count
}

// State is the synthesis state shared by every pass in a pipeline: the
// benchmark, the evolving clock tree with its obstacle set, the armed
// optimization context (accurate evaluator), the stage-metric history, and
// the construction counters the flow reports.
type State struct {
	Opts  Options // resolved options (Options.Resolve)
	Bench *bench.Benchmark

	// Tree is the pointer-form clock tree. It stays nil while the
	// construction passes build Arena; MaterializeTree converts exactly
	// once, right before the first consumer that needs pointer nodes
	// (arming the evaluator, or finishing a construction-only run).
	Tree *ctree.Tree
	// Arena is the SoA form the construction passes build into. Once Tree
	// has been materialized, Tree is authoritative; ParsePlan rejects plans
	// that would run a construction pass after that point.
	Arena *ctree.Arena
	Obs   *geom.ObstacleSet
	// Opt is the optimization-pass context around the accurate evaluator.
	// It is nil until the pipeline arms it (lazily, before the first pass
	// registered with NeedsEval).
	Opt *opt.Context

	Stages []StageRecord

	// Construction outputs reported on the Result.
	Legalization   route.Report
	Composite      tech.Composite
	InvertedSinks  int // before polarity correction (Table II)
	AddedInverters int // polarity-correcting inverters (Table II)

	// ArmEval builds the accurate evaluator and the opt.Context for the
	// cascade passes, then records the INITIAL stage. The orchestrator
	// (core.SynthesizeContext) installs it; the runner invokes it at most
	// once, right before the first pass that needs evaluation.
	ArmEval func(ctx context.Context, s *State) error

	// RecordHook and CalibrateHook override the default Table III
	// bookkeeping (a cached-CNE read against the armed evaluator). They
	// exist for pipeline tests and callers with custom metric plumbing.
	RecordHook    func(s *State, name string) error
	CalibrateHook func(s *State) (eval.Metrics, error)

	armed bool
}

// Logf forwards to the options' Log hook when set.
func (s *State) Logf(format string, args ...interface{}) {
	if s.Opts.Log != nil {
		s.Opts.Log(format, args...)
	}
}

// ProgressPrefix marks per-pass pipeline progress lines emitted through
// the Log hook, so transports can route them to a dedicated event type —
// contangod's SSE stream forwards them as "pass" events instead of "log".
const ProgressPrefix = "pass "

// Progressf emits a per-pass pipeline progress line (ProgressPrefix-tagged)
// through the Log hook.
func (s *State) Progressf(format string, args ...interface{}) {
	s.Logf(ProgressPrefix+format, args...)
}

// IsProgressLine reports whether a log line is a per-pass pipeline
// progress event (emitted by Progressf).
func IsProgressLine(line string) bool { return strings.HasPrefix(line, ProgressPrefix) }

// MaterializeTree converts the arena-built tree to pointer form exactly
// once: the arena's span arrays are compacted (dropping construction
// garbage) and ToTree rebuilds the node graph. A no-op when the tree
// already exists or no construction pass ran.
func (s *State) MaterializeTree() error {
	if s.Tree != nil || s.Arena == nil {
		return nil
	}
	s.Arena.Compact()
	tr, err := s.Arena.ToTree()
	if err != nil {
		return err
	}
	s.Tree = tr
	return nil
}

// EnsureEval arms the accurate evaluator exactly once (via the ArmEval
// hook). Passes registered with NeedsEval, cycle groups and gate
// predicates all trigger it.
func (s *State) EnsureEval(ctx context.Context) error {
	if s.armed {
		return nil
	}
	if s.ArmEval == nil {
		return errors.New("flow: no ArmEval hook installed")
	}
	// Arming runs the first full multi-corner evaluation (the INITIAL
	// record), which is where a job's corner-evaluation time concentrates —
	// bracket it so flow traces show it as its own phase.
	var endSpan func()
	if s.Opts.SpanHook != nil {
		endSpan = s.Opts.SpanHook("eval", "corner_eval")
	}
	err := s.ArmEval(ctx, s)
	if endSpan != nil {
		endSpan()
	}
	if err != nil {
		return err
	}
	s.armed = true
	return nil
}

// Record appends a stage record named name: a cached-CNE read (free when
// the last pass left a valid evaluation) plus the cumulative simulator run
// count — one Table III row. RecordHook overrides the default.
func (s *State) Record(name string) error {
	if s.RecordHook != nil {
		return s.RecordHook(s, name)
	}
	if s.Opt == nil {
		return errors.New("flow: Record before the evaluator was armed")
	}
	_, m, err := s.Opt.Baseline()
	if err != nil {
		return err
	}
	rec := StageRecord{Name: name, Metrics: m}
	if s.Opts.Engine != nil {
		rec.Runs = s.Opts.Engine.Runs
	}
	s.Stages = append(s.Stages, rec)
	s.Logf("%s: [%s] %s", s.Bench.Name, name, m)
	return nil
}

// Calibrate returns current metrics from the armed evaluator (a cached-CNE
// read). CalibrateHook overrides the default.
func (s *State) Calibrate() (eval.Metrics, error) {
	if s.CalibrateHook != nil {
		return s.CalibrateHook(s)
	}
	if s.Opt == nil {
		return eval.Metrics{}, errors.New("flow: Calibrate before the evaluator was armed")
	}
	_, m, err := s.Opt.Baseline()
	return m, err
}

// LastMetrics returns the most recently recorded stage metrics.
func (s *State) LastMetrics() (eval.Metrics, bool) {
	if len(s.Stages) == 0 {
		return eval.Metrics{}, false
	}
	return s.Stages[len(s.Stages)-1].Metrics, true
}
