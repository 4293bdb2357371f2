package flow

import (
	"fmt"

	"contango/internal/eval"
	"contango/internal/opt"
	"context"
	"strings"
	"testing"
)

// The flow package's own tests run without core, so the registry holds
// only these stand-ins. "zst"/"legalize"/"buffer"/"polarity" mirror the
// construction prelude; the rest model the cascade.
func init() {
	names := []struct {
		name string
		reg  Registration
	}{
		{"zst", Registration{}},
		{"legalize", Registration{}},
		{"buffer", Registration{}},
		{"polarity", Registration{}},
		{"tune", Registration{Optional: true, Record: true, NeedsEval: true}},
		{"wire", Registration{Optional: true, Record: true, NeedsEval: true}},
		{"snake", Registration{Optional: true, Record: true, NeedsEval: true}},
	}
	for _, n := range names {
		r := n.reg
		name := n.name
		r.Pass = NewPass(name, func(ctx context.Context, s *State) error {
			s.Logf("ran %s rounds=%d", name, contextRounds(s))
			return nil
		})
		Register(r)
	}
}

func contextRounds(s *State) int {
	if s.Opt == nil {
		return 0
	}
	return s.Opt.MaxRounds
}

func TestCanon(t *testing.T) {
	for in, want := range map[string]string{
		" TBSZ ": "tbsz", "TwSz": "twsz", "bwsn": "bwsn", "Cycle-1_a": "cycle-1_a",
	} {
		if got := Canon(in); got != want {
			t.Errorf("Canon(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want string // canonical rendering; "" means same as spec
	}{
		{"zst,legalize,buffer,polarity,tune,wire", ""},
		{"zst,legalize,buffer,polarity,tune:4,cycle(wire,snake)x2", ""},
		{"zst,legalize,buffer,polarity,wire?skew>10.5,snake?cap<2000", ""},
		{"zst, Legalize , BUFFER,polarity, tune : 4", "zst,legalize,buffer,polarity,tune:4"},
		{"cycle(wire,snake) X3,tune", "zst,legalize,buffer,polarity,cycle(wire,snake)x3,tune"},
		// Construction prelude implied for pure-cascade specs.
		{"tune:2,wire", "zst,legalize,buffer,polarity,tune:2,wire"},
	}
	for _, c := range cases {
		p, err := ParsePlan(c.spec)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.spec, err)
			continue
		}
		want := c.want
		if want == "" {
			want = c.spec
		}
		if p.String() != want {
			t.Errorf("ParsePlan(%q).String() = %q, want %q", c.spec, p.String(), want)
			continue
		}
		// Canonical rendering must be a parse fixpoint.
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Errorf("reparse %q: %v", p.String(), err)
		} else if again.String() != p.String() {
			t.Errorf("not a fixpoint: %q -> %q", p.String(), again.String())
		}
	}
}

func TestParsePlanInvalid(t *testing.T) {
	for _, spec := range []string{
		"",                       // empty
		" , ,",                   // only separators
		"nosuchpass",             // unregistered
		"tune:0",                 // round budget must be positive
		"tune:x",                 // non-numeric rounds
		"tune?bogus>1",           // unknown gate metric
		"tune?skew=1",            // bad gate operator
		"tune?skew>abc",          // bad gate value
		"cycle(wire",             // unclosed group
		"cycle(wire))",           // unbalanced
		"cycle()x2",              // empty group
		"cycle(wire)y3",          // bad suffix
		"cycle(wire)x0",          // cycle count must be positive
		"cycle(cycle(wire)x2)x2", // nested groups
		"tu ne",                  // whitespace inside a name
		// Construction after the evaluator is armed.
		"tune,zst,legalize,buffer,polarity",
		"zst,legalize,buffer,polarity,tune,polarity",
		"zst,legalize,buffer,polarity,cycle(wire),buffer",
		"zst,legalize,buffer,polarity,wire?skew>1,legalize",
		"zst?skew>5,legalize,buffer,polarity",
		"zst,legalize,buffer,polarity,cycle(wire,polarity)",
	} {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted: %v", spec, p)
		}
	}
}

func TestResolvePlanBuiltinsAndDefault(t *testing.T) {
	p, err := ResolvePlan("")
	if err != nil {
		// Built-in specs reference core's passes, which aren't registered
		// in this package's test binary — the lookup failure is expected
		// to mention the unknown pass, not crash.
		if !strings.Contains(err.Error(), "unknown pass") {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if p.Name != DefaultPlanName {
		t.Errorf("default plan = %s", p.Name)
	}
}

// newTestState builds a State with stubbed evaluation hooks: ArmEval
// installs a metrics script, Calibrate/Record walk it.
func newTestState(t *testing.T, skews []float64) (*State, *[]string) {
	t.Helper()
	var lines []string
	s := &State{}
	s.Opts.Log = func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	s.Opts = s.Opts.Resolve()
	next := 0
	calibrate := func(st *State) (m eval.Metrics, err error) {
		m.Skew = skews[minInt(next, len(skews)-1)]
		next++
		return m, nil
	}
	s.ArmEval = func(ctx context.Context, st *State) error {
		lines = append(lines, "armed")
		st.CalibrateHook = func(st *State) (eval.Metrics, error) { return calibrate(st) }
		st.RecordHook = func(st *State, name string) error {
			m, err := calibrate(st)
			if err != nil {
				return err
			}
			st.Stages = append(st.Stages, StageRecord{Name: name, Metrics: m})
			return nil
		}
		return st.Record("INITIAL")
	}
	return s, &lines
}

func TestRunOrderSkipAndLazyArm(t *testing.T) {
	s, lines := newTestState(t, []float64{10})
	s.Opts.SkipStages = map[string]bool{"wire": true}
	plan := Plan{Steps: []Step{
		{Pass: "zst"}, {Pass: "tune"}, {Pass: "wire"}, {Pass: "snake", Rounds: 4},
	}}
	if err := Run(context.Background(), s, plan); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(*lines, "\n")
	// zst runs before arming; arming happens once, at the first eval pass.
	wantOrder := []string{"ran zst", "armed", "ran tune", "skipped", "ran snake"}
	pos := -1
	for _, w := range wantOrder {
		p := strings.Index(joined, w)
		if p < 0 || p < pos {
			t.Fatalf("event %q missing or out of order in:\n%s", w, joined)
		}
		pos = p
	}
	if strings.Contains(joined, "ran wire") {
		t.Error("skipped pass ran")
	}
	if got := stageList(s); got != "INITIAL,TUNE,SNAKE" {
		t.Errorf("stages = %s", got)
	}
}

func TestRunRoundsOverrideRestored(t *testing.T) {
	s, lines := newTestState(t, []float64{10})
	armOld := s.ArmEval
	s.ArmEval = func(ctx context.Context, st *State) error {
		if err := armOld(ctx, st); err != nil {
			return err
		}
		st.Opt = &opt.Context{MaxRounds: 16}
		return nil
	}
	plan := Plan{Steps: []Step{{Pass: "tune", Rounds: 4}, {Pass: "wire"}}}
	if err := Run(context.Background(), s, plan); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(*lines, "\n")
	if !strings.Contains(joined, "ran tune rounds=4") {
		t.Errorf("per-step round budget not applied:\n%s", joined)
	}
	if !strings.Contains(joined, "ran wire rounds=16") {
		t.Errorf("round budget not restored after the step:\n%s", joined)
	}
}

func TestRunGate(t *testing.T) {
	// INITIAL records skew 10; the gate consults calibrate (also 10).
	s, lines := newTestState(t, []float64{10})
	g1 := &Gate{Metric: "skew", Value: 50}            // 10 > 50 false -> gated off
	g2 := &Gate{Metric: "skew", Value: 5}             // 10 > 5 true -> runs
	g3 := &Gate{Metric: "skew", Less: true, Value: 5} // 10 < 5 false -> gated off
	plan := Plan{Steps: []Step{
		{Pass: "tune", Gate: g1}, {Pass: "wire", Gate: g2}, {Pass: "snake", Gate: g3},
	}}
	if err := Run(context.Background(), s, plan); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(*lines, "\n")
	if strings.Contains(joined, "ran tune") || strings.Contains(joined, "ran snake") {
		t.Errorf("gated-off pass ran:\n%s", joined)
	}
	if !strings.Contains(joined, "ran wire") {
		t.Errorf("admitted pass skipped:\n%s", joined)
	}
}

func TestRunCycleConvergence(t *testing.T) {
	// Metrics script: INITIAL 10, then cycle records 8 (improved),
	// 7.99 (not improved by >= 0.05) -> stop after CYCLE2 despite budget 5.
	s, _ := newTestState(t, []float64{10, 8, 7.99, 5, 4})
	plan := Plan{Steps: []Step{{Cycle: []Step{{Pass: "wire"}, {Pass: "snake"}}, Repeat: 5}}}
	if err := Run(context.Background(), s, plan); err != nil {
		t.Fatal(err)
	}
	if got := stageList(s); got != "INITIAL,CYCLE1,CYCLE2" {
		t.Errorf("stages = %s, want INITIAL,CYCLE1,CYCLE2", got)
	}
}

func TestRunCycleBudgetFromOptions(t *testing.T) {
	// Unpinned cycle group takes its budget from resolved Options.Cycles;
	// a disabled budget runs zero cycles.
	s, _ := newTestState(t, []float64{10, 1, 1})
	s.Opts.Cycles = -1
	plan := Plan{Steps: []Step{{Pass: "tune"}, {Cycle: []Step{{Pass: "wire"}}}}}
	if err := Run(context.Background(), s, plan); err != nil {
		t.Fatal(err)
	}
	if got := stageList(s); got != "INITIAL,TUNE" {
		t.Errorf("stages = %s, want INITIAL,TUNE (cycles disabled)", got)
	}
}

func TestRunCanceledContext(t *testing.T) {
	s, _ := newTestState(t, []float64{10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(ctx, s, Plan{Steps: []Step{{Pass: "tune"}}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func stageList(s *State) string {
	names := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		names[i] = st.Name
	}
	return strings.Join(names, ",")
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
