package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"contango/internal/eval"
)

// The runner tests drive the real pass table on tinyBench with one-round
// budgets. Where a test needs particular metric values it scripts them
// through state.readMetrics; the passes themselves always run for real.

// newTestState returns a pipeline state for tinyBench whose Log hook
// collects every line.
func newTestState(o Options) (*state, *[]string) {
	var lines []string
	o.Log = func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	return &state{Result: Result{Benchmark: tinyBench()}, opts: o.Resolve()}, &lines
}

// scriptMetrics makes every metric read return the next skew of the
// script, holding the last one.
func scriptMetrics(s *state, skews ...float64) {
	next := 0
	s.readMetrics = func() (eval.Metrics, error) {
		m := eval.Metrics{Skew: skews[min(next, len(skews)-1)]}
		next++
		return m, nil
	}
}

func mustParse(t *testing.T, spec string) Plan {
	t.Helper()
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// inOrder fails unless every event occurs in the log, in the given order.
func inOrder(t *testing.T, lines []string, events ...string) {
	t.Helper()
	joined := strings.Join(lines, "\n")
	pos := -1
	for _, e := range events {
		p := strings.Index(joined, e)
		if p < 0 || p < pos {
			t.Fatalf("event %q missing or out of order in:\n%s", e, joined)
		}
		pos = p
	}
}

func TestRunOrderSkipAndLazyArm(t *testing.T) {
	s, lines := newTestState(Options{MaxRounds: 1, SkipStages: map[string]bool{"twsz": true}})
	if err := runPlan(context.Background(), s, mustParse(t, "tbsz,twsz,twsn")); err != nil {
		t.Fatal(err)
	}
	// Construction runs before arming; arming happens once, right before
	// the first cascade pass.
	inOrder(t, *lines, "zst: done", "polarity: done", "[INITIAL]", "tbsz: start", "twsz: skipped", "twsn: start")
	if n := strings.Count(strings.Join(*lines, "\n"), "[INITIAL]"); n != 1 {
		t.Errorf("evaluator armed %d times, want once", n)
	}
	if got := stageList(s); got != "INITIAL,TBSZ,TWSN" {
		t.Errorf("stages = %s", got)
	}
}

func TestRunRoundsOverrideRestored(t *testing.T) {
	rounds := map[string]int{}
	var s *state
	s, _ = newTestState(Options{MaxRounds: 3, SpanHook: func(kind, name string) func() {
		if kind == "pass" && s.opt != nil {
			rounds[name] = s.opt.MaxRounds
		}
		return func() {}
	}})
	if err := runPlan(context.Background(), s, mustParse(t, "tbsz:1,twsz")); err != nil {
		t.Fatal(err)
	}
	if rounds["tbsz"] != 1 {
		t.Errorf("tbsz ran with %d rounds, want its step budget 1", rounds["tbsz"])
	}
	if rounds["twsz"] != 3 || s.opt.MaxRounds != 3 {
		t.Errorf("round budget not restored after the step: twsz ran with %d, context holds %d, want 3",
			rounds["twsz"], s.opt.MaxRounds)
	}
}

func TestRunGate(t *testing.T) {
	// Every metric read reports skew 10.
	s, lines := newTestState(Options{MaxRounds: 1})
	scriptMetrics(s, 10)
	plan := mustParse(t, "tbsz?skew>50,twsz?skew>5,twsn?skew<5")
	if err := runPlan(context.Background(), s, plan); err != nil {
		t.Fatal(err)
	}
	inOrder(t, *lines, "tbsz: gated off (skew>50)", "twsz: start", "twsn: gated off (skew<5)")
	if got := stageList(s); got != "INITIAL,TWSZ" {
		t.Errorf("stages = %s, want INITIAL,TWSZ", got)
	}
}

func TestRunCycleConvergence(t *testing.T) {
	// Metrics script: INITIAL 10, then cycle records 8 (improved),
	// 7.99 (not improved by >= 0.05) -> stop after CYCLE2 despite budget 5.
	s, _ := newTestState(Options{MaxRounds: 1})
	scriptMetrics(s, 10, 8, 7.99, 5, 4)
	if err := runPlan(context.Background(), s, mustParse(t, "cycle(twsz,twsn)x5")); err != nil {
		t.Fatal(err)
	}
	if got := stageList(s); got != "INITIAL,CYCLE1,CYCLE2" {
		t.Errorf("stages = %s, want INITIAL,CYCLE1,CYCLE2", got)
	}
}

func TestRunCycleBudgetFromOptions(t *testing.T) {
	// An unpinned cycle group takes its budget from resolved
	// Options.Cycles; a disabled budget runs zero cycles.
	s, _ := newTestState(Options{MaxRounds: 1, Cycles: -1})
	if err := runPlan(context.Background(), s, mustParse(t, "tbsz,cycle(twsz)")); err != nil {
		t.Fatal(err)
	}
	if got := stageList(s); got != "INITIAL,TBSZ" {
		t.Errorf("stages = %s, want INITIAL,TBSZ (cycles disabled)", got)
	}
}

func TestRunCanceledContext(t *testing.T) {
	s, _ := newTestState(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runPlan(ctx, s, mustParse(t, "tbsz")); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func stageList(s *state) string {
	names := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		names[i] = st.Name
	}
	return strings.Join(names, ",")
}
