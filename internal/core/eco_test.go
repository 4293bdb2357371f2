package core

// Flow-level ECO coverage: the "eco" plan restores a finished tree,
// replays a delta, and runs only tuning passes — and the whole thing is
// reproducible to the byte. The determinism property is what the
// service's content-addressed cache rests on (same base + same delta must
// hit the same slot with the same artifact), so it is pinned here as an
// encode-level comparison, not just a metrics one.

import (
	"bytes"
	"strings"
	"testing"

	"contango/internal/buffering"
	"contango/internal/eco"
	"contango/internal/route"
)

// ecoFixture synthesizes the tiny base, generates a delta against it, and
// returns the ready-to-run (perturbed benchmark, options) pair.
func ecoFixture(t *testing.T) (*Result, *eco.Delta, Options) {
	t.Helper()
	b := tinyBench()
	base, err := Synthesize(b, Options{Plan: cascadeSpec(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built delta with all three edit classes, so the replay
	// exercises removal pruning, re-attachment and polarity repair.
	d, err := eco.ParseDelta(strings.NewReader(
		"move a 2550 950\nmove d 1400 2700\nadd z1 3300 2800 21\nremove g\n"))
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Plan: "eco", ECO: &eco.Spec{
		BaseKey:   "base-key",
		Delta:     d,
		Base:      base.Tree,
		Composite: base.Composite,
	}}
	return base, d, o
}

func TestECOFlowRepairsAndStaysLegal(t *testing.T) {
	base, d, o := ecoFixture(t)
	b := tinyBench()
	perturbed, err := d.Perturb(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(perturbed, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(res.Tree.Arena().Sinks()); got != len(perturbed.Sinks) {
		t.Fatalf("%d sinks, want %d", got, len(perturbed.Sinks))
	}
	if got := len(buffering.InvertedSinksArena(res.Tree.Arena())); got != 0 {
		t.Errorf("%d sinks inverted after eco repair", got)
	}
	if bad := route.CheckLegalArena(res.Tree.Arena(), geomObstacles(b), 1e9); len(bad) != 0 {
		t.Errorf("%d illegal edges after eco", len(bad))
	}
	if res.Final.SlewViol > 0 {
		t.Errorf("%d slew violations after eco tuning", res.Final.SlewViol)
	}
	// The restored base is read-only: the cached tree must be untouched.
	if err := base.Tree.Validate(); err != nil {
		t.Fatalf("eco run corrupted the cached base tree: %v", err)
	}
	if got := len(base.Tree.Arena().Sinks()); got != len(b.Sinks) {
		t.Fatalf("base tree lost sinks: %d, want %d", got, len(b.Sinks))
	}
}

// TestECOFlowDeterministic pins the acceptance property: same base + same
// delta => bit-identical result envelope (wall time zeroed, as the cache
// comparison does).
func TestECOFlowDeterministic(t *testing.T) {
	_, d, o := ecoFixture(t)
	perturbed, err := d.Perturb(tinyBench())
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		res, err := Synthesize(perturbed, o)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		var buf bytes.Buffer
		if err := EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("two eco runs of the same (base, delta) produced different result envelopes")
	}
}

func TestECOPlanErrors(t *testing.T) {
	b := tinyBench()
	if _, err := Synthesize(b, Options{Plan: "eco"}); err == nil ||
		!strings.Contains(err.Error(), "Options.ECO") {
		t.Errorf("eco plan without a spec: err = %v", err)
	}
	// Submitting the base benchmark instead of the perturbed one must fail
	// the sink-count cross-check (this delta only removes, so the counts
	// cannot agree).
	base, _, o := ecoFixture(t)
	d, err := eco.ParseDelta(strings.NewReader("remove g\n"))
	if err != nil {
		t.Fatal(err)
	}
	o.ECO = &eco.Spec{BaseKey: "base-key", Delta: d, Base: base.Tree, Composite: base.Composite}
	if _, err := Synthesize(b, o); err == nil ||
		!strings.Contains(err.Error(), "delta-perturbed") {
		t.Errorf("mismatched benchmark: err = %v", err)
	}
}
