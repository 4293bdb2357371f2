package core

import (
	"reflect"
	"strings"
	"testing"
)

// sameRun asserts two synthesis results are bit-identical: same stage
// sequence, same metrics at every stage, same cumulative evaluation
// counts, same final numbers.
func sameRun(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Stages) != len(b.Stages) {
		t.Fatalf("%s: stage counts differ: %d vs %d", label, len(a.Stages), len(b.Stages))
	}
	for i := range a.Stages {
		x, y := a.Stages[i], b.Stages[i]
		if x.Name != y.Name {
			t.Errorf("%s: stage %d named %s vs %s", label, i, x.Name, y.Name)
		}
		if !reflect.DeepEqual(x.Metrics, y.Metrics) {
			t.Errorf("%s: stage %s metrics differ: %v vs %v", label, x.Name, x.Metrics, y.Metrics)
		}
		if x.Runs != y.Runs {
			t.Errorf("%s: stage %s run counts differ: %d vs %d", label, x.Name, x.Runs, y.Runs)
		}
	}
	if !reflect.DeepEqual(a.Final, b.Final) {
		t.Errorf("%s: final metrics differ: %v vs %v", label, a.Final, b.Final)
	}
	if a.Runs != b.Runs {
		t.Errorf("%s: total run counts differ: %d vs %d", label, a.Runs, b.Runs)
	}
	if a.Buffers != b.Buffers || a.AddedInverters != b.AddedInverters {
		t.Errorf("%s: construction diverged: %d/%d buffers, %d/%d inverters",
			label, a.Buffers, b.Buffers, a.AddedInverters, b.AddedInverters)
	}
}

// TestBuiltinPlansResolve: every built-in plan parses, and its canonical
// rendering is a fixpoint (parse(render(p)) == p), which is what lets the
// service fingerprint plans by their expanded spec.
func TestBuiltinPlansResolve(t *testing.T) {
	names := PlanNames()
	if len(names) == 0 || names[0] != DefaultPlanName {
		t.Fatalf("PlanNames() = %v, want paper first", names)
	}
	for _, name := range names {
		p, err := ResolvePlan(name)
		if err != nil {
			t.Fatalf("built-in %s: %v", name, err)
		}
		again, err := ResolvePlan(p.String())
		if err != nil {
			t.Fatalf("re-resolving %s (%q): %v", name, p.String(), err)
		}
		if again.String() != p.String() {
			t.Errorf("%s not canonical: %q -> %q", name, p.String(), again.String())
		}
	}
	// Resolve canonicalizes Options.Plan to the expanded default spec.
	r := (Options{}).Resolve()
	want, _ := ResolvePlan(DefaultPlanName)
	if r.Plan != want.String() {
		t.Errorf("resolved zero plan = %q, want %q", r.Plan, want.String())
	}
}

// TestResolvePlanBuiltinsAndDefault: the empty plan resolves to the
// default, every built-in resolves under its own name, and every pass a
// built-in names is in the pass table.
func TestResolvePlanBuiltinsAndDefault(t *testing.T) {
	p, err := ResolvePlan("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != DefaultPlanName {
		t.Errorf("default plan = %s", p.Name)
	}
	for name, spec := range builtinSpecs {
		p, err := ResolvePlan(name)
		if err != nil {
			t.Fatalf("built-in %s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("built-in %s resolved as %q", name, p.Name)
		}
		for _, tok := range strings.FieldsFunc(spec, func(r rune) bool { return strings.ContainsRune(",()", r) }) {
			pass := strings.SplitN(tok, ":", 2)[0]
			if pass == "cycle" || strings.HasPrefix(pass, "x") {
				continue
			}
			if lookupPass(pass) == nil {
				t.Errorf("built-in %s names %q, which is not in the pass table", name, pass)
			}
		}
	}
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

// The seed corpus of FuzzParsePlan (testdata/fuzz/FuzzParsePlan) holds
// every spec of the two tables below.
func TestParsePlanRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want string // canonical rendering; "" means same as spec
	}{
		{"zst,legalize,buffer,polarity,tbsz,twsz", ""},
		{"zst,legalize,buffer,polarity,tbsz:4,cycle(twsz,twsn)x2", ""},
		{"zst,legalize,buffer,polarity,twsz?skew>10.5,twsn?cap<2000", ""},
		{"zst, Legalize , BUFFER,polarity, tbsz : 4", "zst,legalize,buffer,polarity,tbsz:4"},
		{"cycle(twsz,twsn) X3,tbsz", "zst,legalize,buffer,polarity,cycle(twsz,twsn)x3,tbsz"},
		// Construction prelude implied for pure-cascade specs.
		{"tbsz:2,twsz", "zst,legalize,buffer,polarity,tbsz:2,twsz"},
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
		"nosuchpass",             // not in the pass table
		"tbsz:0",                 // round budget must be positive
		"tbsz:x",                 // non-numeric rounds
		"tbsz?bogus>1",           // unknown gate metric
		"tbsz?skew=1",            // bad gate operator
		"tbsz?skew>abc",          // bad gate value
		"twsz?skew>NaN",          // non-finite gate value
		"twsz?skew<+Inf",         // non-finite gate value
		"cycle(twsz",             // unclosed group
		"cycle(twsz))",           // unbalanced
		"cycle()x2",              // empty group
		"cycle(twsz)y3",          // bad suffix
		"cycle(twsz)x0",          // cycle count must be positive
		"cycle(cycle(twsz)x2)x2", // nested groups
		"tb sz",                  // whitespace inside a name
		// Construction after the evaluator is armed.
		"tbsz,zst,legalize,buffer,polarity",
		"zst,legalize,buffer,polarity,tbsz,polarity",
		"zst,legalize,buffer,polarity,cycle(twsz),buffer",
		"zst,legalize,buffer,polarity,twsz?skew>1,legalize",
		"zst?skew>5,legalize,buffer,polarity",
		"zst,legalize,buffer,polarity,cycle(twsz,polarity)",
	} {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted: %v", spec, p)
		}
	}
}

// FuzzParsePlan feeds arbitrary specs to ResolvePlan. It must never panic,
// and any plan it accepts must render to a spec that resolves again to the
// same rendering.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ResolvePlan(spec)
		if err != nil {
			return
		}
		again, err := ResolvePlan(p.String())
		if err != nil {
			t.Fatalf("rendering %q of %q does not resolve: %v", p.String(), spec, err)
		}
		if again.String() != p.String() {
			t.Fatalf("rendering of %q is not canonical: %q -> %q", spec, p.String(), again.String())
		}
	})
}

// TestPaperPlanMatchesExplicitSpec is the plan-equivalence acceptance
// test: the default "paper" plan and its spelled-out spec must reproduce
// the cascade bit-identically (stage list, metrics, evaluation counts) on
// a trimmed ISPD'09 benchmark.
func TestPaperPlanMatchesExplicitSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("full cascade comparison is slow")
	}
	opts := Options{MaxRounds: 4, Cycles: 1}
	def, err := Synthesize(trimmedISPD(t, "ispd09f22", 30), opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := opts
	spec.Plan = "zst,legalize,buffer,polarity,tbsz,twsz,twsn,bwsn,cycle(twsz,twsn,bwsn)"
	explicit, err := Synthesize(trimmedISPD(t, "ispd09f22", 30), spec)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "paper vs explicit spec", def, explicit)

	// The pre-refactor cascade shape: INITIAL, the four named passes, then
	// one recorded convergence cycle per executed cycle.
	want := []string{"INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN", "CYCLE1"}
	for i, name := range want {
		if i >= len(def.Stages) || def.Stages[i].Name != name {
			t.Fatalf("stage sequence %v, want prefix %v", stageNames(def), want)
		}
	}
}

// TestWireOnlyPlanEqualsSkipStages: the wire-only built-in must be
// bit-identical to ablating TBSZ from the default plan via SkipStages.
func TestWireOnlyPlanEqualsSkipStages(t *testing.T) {
	skip, err := Synthesize(tinyBench(), Options{
		MaxRounds: 2, Cycles: 1, SkipStages: map[string]bool{"tbsz": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := Synthesize(tinyBench(), Options{MaxRounds: 2, Cycles: 1, Plan: "wire-only"})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "SkipStages{tbsz} vs wire-only", skip, wire)
	for _, st := range wire.Stages {
		if st.Name == "TBSZ" {
			t.Error("wire-only plan ran TBSZ")
		}
	}
}

// TestCustomPlanSpecEndToEnd: a typed cascade spec (construction prelude
// implied) runs end to end and emits per-pass progress events.
func TestCustomPlanSpecEndToEnd(t *testing.T) {
	var progress, logs int
	o := Options{
		MaxRounds: 2,
		Plan:      "tbsz:2,twsz:2",
		Log: func(format string, args ...interface{}) {
			if IsProgressLine(format) {
				progress++
			} else {
				logs++
			}
		},
	}
	res, err := Synthesize(tinyBench(), o)
	if err != nil {
		t.Fatal(err)
	}
	got := stageNames(res)
	want := "INITIAL,TBSZ,TWSZ"
	if strings.Join(got, ",") != want {
		t.Errorf("stages %v, want %s", got, want)
	}
	if progress == 0 {
		t.Error("no per-pass progress events emitted")
	}
	if logs == 0 {
		t.Error("regular progress log lines vanished")
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGatedPass: a gate predicate that can never hold skips its pass.
func TestGatedPass(t *testing.T) {
	res, err := Synthesize(tinyBench(), Options{MaxRounds: 2, Plan: "tbsz:2,twsz:2?skew<-1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if st.Name == "TWSZ" {
			t.Error("gated-off pass still recorded a stage")
		}
	}
}

// TestInvalidPlanRejected: unknown names and malformed specs fail fast.
func TestInvalidPlanRejected(t *testing.T) {
	for _, spec := range []string{"bogus", "tbsz:,twsz", "cycle(twsz", "cycle()x2", "tbsz?skew=3"} {
		if _, err := Synthesize(tinyBench(), Options{Plan: spec}); err == nil {
			t.Errorf("plan %q accepted", spec)
		}
	}
}

// TestMisorderedPlanFailsCleanly: a plan that runs construction out of
// order must fail with an error, not a nil-tree panic — the service runs
// jobs without a recover(). Construction after the evaluator is armed is
// rejected when the plan is parsed; a missing zst is caught at run time.
func TestMisorderedPlanFailsCleanly(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"tbsz,zst,legalize,buffer,polarity", "cannot follow cascade step"},
		{"zst?skew>5,legalize,buffer,polarity", "cannot be gated"},
		{"zst,legalize,buffer,polarity,tbsz,polarity", "cannot follow cascade step"},
		{"zst,legalize,buffer,polarity,cycle(twsz,zst)", "cannot run in a cycle group"},
		{"legalize,buffer,polarity,tbsz", "zst pass must run first"},
	} {
		_, err := Synthesize(tinyBench(), Options{MaxRounds: 1, Plan: tc.spec})
		if err == nil {
			t.Errorf("mis-ordered plan %q succeeded", tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("plan %q: unexpected error %v", tc.spec, err)
		}
	}
}

func stageNames(r *Result) []string {
	out := make([]string, len(r.Stages))
	for i, s := range r.Stages {
		out[i] = s.Name
	}
	return out
}
