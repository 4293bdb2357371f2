package core

import (
	"bytes"
	"reflect"
	"testing"

	"contango/internal/corners"
)

// TestDefaultCornerSetParity is the corner-set acceptance property: asking
// for "ispd09" explicitly must be bit-identical — every stage record,
// every metric field, the same simulator run count — to the legacy zero
// value, because the default set is defined as "leave the technology's
// native corners untouched".
func TestDefaultCornerSetParity(t *testing.T) {
	opts := Options{MaxRounds: 3, Cycles: 1}
	legacy, err := Synthesize(tinyBench(), opts)
	if err != nil {
		t.Fatal(err)
	}
	optsExplicit := opts
	optsExplicit.Corners = "ispd09"
	explicit, err := Synthesize(tinyBench(), optsExplicit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Stages, explicit.Stages) {
		t.Errorf("stage records diverged:\nlegacy   %+v\nexplicit %+v", legacy.Stages, explicit.Stages)
	}
	if !reflect.DeepEqual(legacy.Final, explicit.Final) {
		t.Errorf("final metrics diverged:\nlegacy   %+v\nexplicit %+v", legacy.Final, explicit.Final)
	}
	if legacy.Runs != explicit.Runs {
		t.Errorf("run counts diverged: %d vs %d", legacy.Runs, explicit.Runs)
	}
}

// TestPVT5Synthesis runs the flow across the five-corner PVT envelope and
// checks the multi-corner reporting: five per-corner rows, a spread at
// least as wide as the role-based CLR, and an attributed worst corner.
func TestPVT5Synthesis(t *testing.T) {
	res, err := Synthesize(tinyBench(), Options{MaxRounds: 2, Cycles: -1, Corners: "pvt5"})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Final
	if len(m.PerCorner) != 5 {
		t.Fatalf("per-corner rows=%d want 5", len(m.PerCorner))
	}
	if m.CLRSpread < m.CLR-1e-9 {
		t.Errorf("CLRSpread %v narrower than CLR %v", m.CLRSpread, m.CLR)
	}
	if m.WorstCorner == "" {
		t.Error("no worst-corner attribution")
	}
	if m.Yield != 0 {
		t.Errorf("pvt5 is not an MC set; yield=%v", m.Yield)
	}
	// The undervolt SS corner must be slower than the native slow corner:
	// its max latency is the global max.
	var ss, slow float64
	for _, c := range m.PerCorner {
		switch c.Name {
		case res.Tree.Arena().Tech.Worst().Name:
			ss = c.MaxLat
		case "slow@1.0V":
			slow = c.MaxLat
		}
	}
	if !(ss > slow) {
		t.Errorf("ss corner (%v ps) not slower than native slow (%v ps)", ss, slow)
	}
}

// TestMonteCarloDeterministic: two synthesis runs under the same mc spec
// are bit-identical, and the MC yield statistics are populated.
func TestMonteCarloDeterministic(t *testing.T) {
	opts := Options{MaxRounds: 2, Cycles: -1, Corners: "mc:6:11"}
	a, err := Synthesize(tinyBench(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(tinyBench(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Final, b.Final) {
		t.Errorf("mc runs diverged for a fixed seed:\n%+v\n%+v", a.Final, b.Final)
	}
	if !reflect.DeepEqual(a.Stages, b.Stages) {
		t.Error("mc stage histories diverged for a fixed seed")
	}
	m := a.Final
	if len(m.PerCorner) != 6 {
		t.Fatalf("per-corner rows=%d want 6", len(m.PerCorner))
	}
	if m.LatP50 <= 0 || m.LatP95 < m.LatP50 {
		t.Errorf("quantiles wrong: p50=%v p95=%v", m.LatP50, m.LatP95)
	}
	if m.Yield <= 0 || m.Yield > 1 {
		t.Errorf("yield=%v out of range", m.Yield)
	}
	// A different seed draws different corners and must shift the envelope
	// metrics (the network construction itself is corner-independent only
	// until the cascade, so any difference is fine — assert the corner
	// sets themselves differ via the recorded per-corner voltages).
	optsSeed := opts
	optsSeed.Corners = "mc:6:12"
	c, err := Synthesize(tinyBench(), optsSeed)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Final.PerCorner, c.Final.PerCorner) {
		t.Error("different mc seeds produced identical per-corner stats")
	}
}

// TestInvalidCornerSpec: a bad spec is a clean submit-time error, never a
// silent fall-back to the default corners.
func TestInvalidCornerSpec(t *testing.T) {
	if _, err := Synthesize(tinyBench(), Options{Corners: "mc:bad"}); err == nil {
		t.Error("invalid mc spec accepted")
	}
	if _, err := SynthesizeBaseline(tinyBench(), BaselineNoOpt, Options{Corners: "marzipan"}); err == nil {
		t.Error("unknown set name accepted by baseline flow")
	}
}

// TestResolveCornerIdempotent: resolving twice must not re-derive a
// generated set from its own output (the classic sample-of-samples bug).
func TestResolveCornerIdempotent(t *testing.T) {
	o := Options{Corners: "mc:5:3"}
	r1 := o.Resolve()
	r2 := r1.Resolve()
	if !reflect.DeepEqual(r1.Tech.Corners, r2.Tech.Corners) {
		t.Error("double Resolve re-derived the mc set")
	}
	if r1.Tech.CornerSpec != corners.Canon("mc:5:3") {
		t.Errorf("applied spec not recorded: %q", r1.Tech.CornerSpec)
	}
	// And the original default tech is never mutated by resolution.
	o2 := Options{Corners: "pvt5"}
	res := o2.Resolve()
	if res.Tech == nil || len(res.Tech.Corners) != 5 {
		t.Fatalf("pvt5 not applied: %+v", res.Tech)
	}
}

// TestCodecRoundTripCornerSet: a result synthesized under a derated corner
// set must round-trip through the durable codec with its corner roles,
// derates and per-corner metrics intact — a recovered artifact re-renders
// the same wire JSON.
func TestCodecRoundTripCornerSet(t *testing.T) {
	res, err := Synthesize(tinyBench(), Options{MaxRounds: 1, Cycles: -1, Corners: "mc:4:9",
		SkipStages: map[string]bool{"tbsz": true, "twsz": true, "twsn": true, "bwsn": true}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Final, res.Final) {
		t.Errorf("final metrics drifted:\n got %+v\nwant %+v", got.Final, res.Final)
	}
	tk, want := got.Tree.Arena().Tech, res.Tree.Arena().Tech
	if !reflect.DeepEqual(tk.Corners, want.Corners) {
		t.Error("corner list (incl. derates) drifted through the codec")
	}
	if tk.RefIdx != want.RefIdx || tk.WorstIdx != want.WorstIdx ||
		tk.MCSet != want.MCSet || tk.CornerSpec != want.CornerSpec {
		t.Errorf("corner roles drifted: %+v vs %+v", tk, want)
	}
	// Re-encode is byte-stable.
	var buf2 bytes.Buffer
	if err := EncodeResult(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encode of a decoded corner-set result is not bit-identical")
	}
}

// TestCornerSpecTechMismatch: requesting a non-default set on a Tech that
// already carries a different applied set is unsatisfiable (generated sets
// derive from native corners) and must error, not silently run under the
// stale corners.
func TestCornerSpecTechMismatch(t *testing.T) {
	applied := Options{Corners: "pvt5"}.Resolve().Tech
	if applied.CornerSpec != "pvt5" {
		t.Fatalf("setup: pvt5 not applied (%q)", applied.CornerSpec)
	}
	_, err := Synthesize(tinyBench(), Options{Tech: applied, Corners: "mc:8:1"})
	if err == nil {
		t.Fatal("mismatched corner spec on an applied Tech must error")
	}
	// Reusing the applied Tech with a matching (or default) spec is fine.
	if _, err := SynthesizeBaseline(tinyBench(), BaselineNoOpt, Options{Tech: applied, Corners: "pvt5"}); err != nil {
		t.Fatalf("matching spec rejected: %v", err)
	}
	if _, err := SynthesizeBaseline(tinyBench(), BaselineNoOpt, Options{Tech: applied}); err != nil {
		t.Fatalf("default spec on an applied Tech rejected: %v", err)
	}
}
