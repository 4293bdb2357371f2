package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"contango/internal/bench"
	"contango/internal/buffering"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/spice"
)

// tinyBench builds a fast-to-simulate benchmark for flow tests.
func tinyBench() *bench.Benchmark {
	var sinks []dme.Sink
	locs := []geom.Point{
		{X: 2500, Y: 800}, {X: 2600, Y: 2100}, {X: 3500, Y: 1500},
		{X: 1500, Y: 2600}, {X: 3200, Y: 2900}, {X: 900, Y: 900},
		{X: 2100, Y: 1700}, {X: 3900, Y: 600},
	}
	for i, l := range locs {
		sinks = append(sinks, dme.Sink{Loc: l, Cap: 25 + float64(i), Name: string(rune('a' + i))})
	}
	b := &bench.Benchmark{
		Name:    "tiny",
		Die:     geom.NewRect(0, 0, 4200, 3200),
		Source:  geom.Pt(0, 1600),
		SourceR: 0.1,
		Sinks:   sinks,
		Obstacles: []geom.Obstacle{
			{Rect: geom.NewRect(1800, 1100, 2400, 1500), Name: "m0"},
		},
	}
	b.CapLimit = 60000
	return b
}

// cascadeSpec spells out the paper cascade with every pass pinned to the
// given round budget, followed by a cycle group pinned to the given count
// (none when cycles is 0): the cheap cascades the flow tests run.
func cascadeSpec(rounds, cycles int) string {
	spec := fmt.Sprintf("tbsz:%[1]d,twsz:%[1]d,twsn:%[1]d,bwsn:%[1]d", rounds)
	if cycles > 0 {
		spec += fmt.Sprintf(",cycle(twsz:%[1]d,twsn:%[1]d,bwsn:%[1]d)x%[2]d", rounds, cycles)
	}
	return spec
}

func TestSynthesizeEndToEnd(t *testing.T) {
	b := tinyBench()
	res, err := Synthesize(b, Options{Plan: cascadeSpec(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Tree.Arena().Sinks()) != len(b.Sinks) {
		t.Fatalf("sink count changed: %d", len(res.Tree.Arena().Sinks()))
	}
	if res.Buffers == 0 {
		t.Error("no buffers inserted")
	}
	// Stage records: INITIAL first, final last, named per the paper, and
	// each convergence cycle recorded as its own stage.
	names := []string{"INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN", "CYCLE1"}
	if len(res.Stages) != len(names) {
		t.Fatalf("stages=%d want %d", len(res.Stages), len(names))
	}
	for i, n := range names {
		if res.Stages[i].Name != n {
			t.Errorf("stage %d = %s want %s", i, res.Stages[i].Name, n)
		}
	}
	initial := res.Stages[0].Metrics
	final := res.Final
	if final.Skew > initial.Skew+1e-9 {
		t.Errorf("flow did not reduce skew: %v -> %v", initial.Skew, final.Skew)
	}
	if final.SlewViol > 0 {
		t.Errorf("final network has %d slew violations", final.SlewViol)
	}
	if b.CapLimit > 0 && final.TotalCap > b.CapLimit {
		t.Errorf("final cap %v over limit %v", final.TotalCap, b.CapLimit)
	}
	// Polarity must be correct at every sink.
	if got := len(buffering.InvertedSinksArena(res.Tree.Arena())); got != 0 {
		t.Errorf("%d sinks inverted in final tree", got)
	}
	// No heavy crossings remain.
	obs := geomObstacles(b)
	if bad := route.CheckLegalArena(res.Tree.Arena(), obs, 1e9); len(bad) != 0 {
		t.Errorf("unexpected crossing load")
	}
	if res.Runs == 0 {
		t.Error("run counter not incremented")
	}
}

func geomObstacles(b *bench.Benchmark) *geom.ObstacleSet {
	return geom.NewObstacleSet(b.Obstacles)
}

func TestBaselinesRunAndLoseToContango(t *testing.T) {
	b := tinyBench()
	full, err := Synthesize(b, Options{Plan: cascadeSpec(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []BaselineKind{BaselineNoOpt, BaselineGreedy, BaselineBST} {
		base, err := SynthesizeBaseline(b, kind, Options{})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := base.Tree.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(base.Tree.Arena().Sinks()) != len(b.Sinks) {
			t.Fatalf("%v: sinks lost", kind)
		}
		// The optimized flow must beat every one-shot baseline on skew
		// (the paper's central claim, Table IV).
		if full.Final.Skew > base.Final.Skew {
			t.Errorf("%v baseline skew %.2f beats contango %.2f",
				kind, base.Final.Skew, full.Final.Skew)
		}
	}
}

// TestOmittedPassesNotRecorded: an ablation is a plan that leaves passes
// out, in any letter case; the omitted passes record no stage.
func TestOmittedPassesNotRecorded(t *testing.T) {
	b := tinyBench()
	res, err := Synthesize(b, Options{Plan: "TWSZ:2,twsn:2,Cycle(twsz:2,TWSN:2)x1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if st.Name == "TBSZ" || st.Name == "BWSN" {
			t.Errorf("omitted stage %s still recorded", st.Name)
		}
	}
	if got := strings.Join(stageNames(res), ","); got != "INITIAL,TWSZ,TWSN,CYCLE1" {
		t.Errorf("stages = %s, want INITIAL,TWSZ,TWSN,CYCLE1", got)
	}
}

func TestCyclesDisabled(t *testing.T) {
	b := tinyBench()
	res, err := Synthesize(b, Options{Plan: cascadeSpec(2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if strings.HasPrefix(st.Name, "CYCLE") {
			t.Errorf("a plan without a cycle group still recorded %s", st.Name)
		}
	}
	if res.Stages[len(res.Stages)-1].Name != "BWSN" {
		t.Errorf("last stage = %s, want BWSN", res.Stages[len(res.Stages)-1].Name)
	}
}

func TestCNEOnly(t *testing.T) {
	b := tinyBench()
	res, err := SynthesizeBaseline(b, BaselineNoOpt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := spice.New()
	m, rs, err := CNEOnly(res.Tree, eng, b.CapLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(res.Tree.Arena().Tech.Corners) {
		t.Fatalf("results=%d", len(rs))
	}
	if m.Skew <= 0 || m.CLR <= 0 {
		t.Errorf("degenerate metrics: %v", m)
	}
	if eng.Runs != len(rs) {
		t.Errorf("runs=%d want %d", eng.Runs, len(rs))
	}
}

// TestBadEngineIsAnError: engine settings the integrator cannot run with
// (a zero timestep used to panic inside a stage-simulation worker and take
// the whole process down) must come back as errors from every entry point.
func TestBadEngineIsAnError(t *testing.T) {
	base, err := SynthesizeBaseline(tinyBench(), BaselineNoOpt, Options{FastSim: true})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]func(e *spice.Engine){
		"unset Dt":          func(e *spice.Engine) { e.Dt = 0 },
		"negative Dt":       func(e *spice.Engine) { e.Dt = -1 },
		"NaN Dt":            func(e *spice.Engine) { e.Dt = nan },
		"infinite Dt":       func(e *spice.Engine) { e.Dt = inf },
		"zero SourceSlew":   func(e *spice.Engine) { e.SourceSlew = 0 },
		"negative MaxSeg":   func(e *spice.Engine) { e.MaxSeg = -100 },
		"NaN MaxSeg":        func(e *spice.Engine) { e.MaxSeg = nan },
		"negative slew":     func(e *spice.Engine) { e.SourceSlew = -20 },
		"infinite slew":     func(e *spice.Engine) { e.SourceSlew = inf },
		"negative settle":   func(e *spice.Engine) { e.SettleTol = -0.1 },
		"NaN settle":        func(e *spice.Engine) { e.SettleTol = nan },
		"only MaxSeg given": func(e *spice.Engine) { *e = spice.Engine{MaxSeg: 100} },
	}
	for name, mutate := range bad {
		eng := spice.New()
		mutate(eng)
		if _, err := Synthesize(tinyBench(), Options{Engine: eng}); err == nil {
			t.Errorf("%s: Synthesize accepted the engine", name)
		}
		if _, err := SynthesizeBaseline(tinyBench(), BaselineNoOpt, Options{Engine: eng}); err == nil {
			t.Errorf("%s: SynthesizeBaseline accepted the engine", name)
		}
		if _, _, err := CNEOnly(base.Tree, eng, 0); err == nil {
			t.Errorf("%s: CNEOnly accepted the engine", name)
		}
	}
	// Zero MaxSeg and SettleTol are legal: the extractor default and an
	// exact-rail settle test.
	eng := spice.New()
	eng.MaxSeg, eng.SettleTol = 0, 0
	if _, _, err := CNEOnly(base.Tree, eng, 0); err != nil {
		t.Errorf("zero MaxSeg and SettleTol rejected: %v", err)
	}
}

func TestLargeInvertersMode(t *testing.T) {
	b := tinyBench()
	res, err := SynthesizeBaseline(b, BaselineNoOpt, Options{LargeInverters: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Composite.Type.Name != "Large" {
		t.Errorf("composite %v, want a Large group", res.Composite)
	}
}

func TestSynthesizeContextCancellation(t *testing.T) {
	b := tinyBench()

	// Already-canceled context: no work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := spice.New()
	if _, err := SynthesizeContext(ctx, b, Options{Engine: eng}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if eng.Runs != 0 {
		t.Errorf("pre-canceled run performed %d simulations", eng.Runs)
	}

	// Cancel mid-cascade from the progress hook: the flow must stop at the
	// next checkpoint instead of finishing the cascade.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	eng2 := spice.New()
	o := Options{Engine: eng2}
	o.Log = func(format string, args ...interface{}) {
		if strings.Contains(fmt.Sprintf(format, args...), "[INITIAL]") {
			cancel2()
		}
	}
	if _, err := SynthesizeContext(ctx2, b, o); err != context.Canceled {
		t.Fatalf("mid-run err = %v, want context.Canceled", err)
	}
	runsAtCancel := eng2.Runs
	if runsAtCancel == 0 {
		t.Error("cascade canceled before the initial evaluation?")
	}
	// A full run needs strictly more evaluations than the canceled one.
	eng3 := spice.New()
	if _, err := Synthesize(b, Options{Engine: eng3}); err != nil {
		t.Fatal(err)
	}
	if eng3.Runs <= runsAtCancel {
		t.Errorf("cancellation saved nothing: canceled %d vs full %d runs", runsAtCancel, eng3.Runs)
	}
}
