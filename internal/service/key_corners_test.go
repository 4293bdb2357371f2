package service

import (
	"encoding/json"
	"strings"
	"testing"

	"contango/internal/bench"
	"contango/internal/core"
)

// seedDefaultFingerprint and seedDefaultJobKey were captured from the
// release immediately before the corner-set refactor (PR 4). Pinning them
// here proves the acceptance criterion that default-options cache keys are
// byte-identical across the refactor: result artifacts persisted by old
// contangod data dirs keep hitting.
const (
	seedDefaultFingerprint = "tech=89ad9fd8029a1466;eng=100,1,20,0.005;gamma=0.1;rounds=16;cycles=3;bufstep=0;fulleval=false;" +
		"plan=zst,legalize,buffer,polarity,tbsz,twsz,twsn,bwsn,cycle(twsz,twsn,bwsn);" +
		"ladder=8xSmall(4.2/6.1/0.44),16xSmall(4.2/6.1/0.44),24xSmall(4.2/6.1/0.44),32xSmall(4.2/6.1/0.44)," +
		"40xSmall(4.2/6.1/0.44),48xSmall(4.2/6.1/0.44),56xSmall(4.2/6.1/0.44),64xSmall(4.2/6.1/0.44);skip="
	seedDefaultJobKey = "e1949e87823630a1d2f774fcb09b402c04c405eb32eb52107ed60b0ed64585d6"
)

func TestDefaultFingerprintUnchangedSinceSeed(t *testing.T) {
	if got := OptionsFingerprint(core.Options{}); got != seedDefaultFingerprint {
		t.Errorf("default options fingerprint drifted from the pre-refactor release:\ngot  %s\nwant %s",
			got, seedDefaultFingerprint)
	}
	b, err := bench.ISPD09("ispd09f22")
	if err != nil {
		t.Fatal(err)
	}
	if got := JobKey(b, core.Options{}); got != seedDefaultJobKey {
		t.Errorf("default job key drifted: got %s want %s", got, seedDefaultJobKey)
	}
}

// TestLegacyBufferStepGetsDefaultKey: the removed buffer_step wire field
// did nothing, so options that still carry it decode under json.Unmarshal
// (unknown fields are ignored) and address the default cache slot. The
// HTTP submit handlers decode strictly and answer such a body with a 400
// naming the field instead.
func TestLegacyBufferStepGetsDefaultKey(t *testing.T) {
	var w OptionsWire
	if err := json.Unmarshal([]byte(`{"buffer_step": 150}`), &w); err != nil {
		t.Fatal(err)
	}
	b, err := bench.ISPD09("ispd09f22")
	if err != nil {
		t.Fatal(err)
	}
	if got := JobKey(b, w.Options()); got != seedDefaultJobKey {
		t.Errorf("legacy buffer_step request keyed %s, want the default %s", got, seedDefaultJobKey)
	}
}

// TestCornerSpecKeying: the default spec (empty or spelled out) shares one
// cache slot; every other corner set addresses its own; mc keys are a pure
// function of the spec.
func TestCornerSpecKeying(t *testing.T) {
	b, err := bench.ISPD09("ispd09f22")
	if err != nil {
		t.Fatal(err)
	}
	base := JobKey(b, core.Options{})
	if got := JobKey(b, core.Options{Corners: "ispd09"}); got != base {
		t.Error("explicit ispd09 must share the default cache slot")
	}
	pvt := JobKey(b, core.Options{Corners: "pvt5"})
	if pvt == base {
		t.Error("pvt5 shares the default slot")
	}
	mc1 := JobKey(b, core.Options{Corners: "mc:8:1"})
	mc1Canon := JobKey(b, core.Options{Corners: "mc:8:1:0.05:0.05:0.05"})
	mc2 := JobKey(b, core.Options{Corners: "mc:8:2"})
	if mc1 != mc1Canon {
		t.Error("shorthand and canonical mc specs must share a slot")
	}
	if mc1 == mc2 || mc1 == base || mc1 == pvt {
		t.Error("distinct corner sets collided")
	}
	// Deterministic: recomputing the same mc key gives the same address.
	if again := JobKey(b, core.Options{Corners: "mc:8:1"}); again != mc1 {
		t.Error("mc key not deterministic")
	}
	// The corner state rides in the tech component of the fingerprint.
	fp := OptionsFingerprint(core.Options{Corners: "pvt5"})
	if !strings.HasPrefix(fp, "tech=") || strings.HasPrefix(fp, "tech=89ad9fd8029a1466") {
		t.Errorf("pvt5 did not change the tech fingerprint: %s", fp)
	}
}

// TestOptionsWireRoundTripCorners: the persisted job-spec projection must
// carry the corner spec, or a durable job recovered after a restart would
// re-run under the default corners with a stale content key.
func TestOptionsWireRoundTripCorners(t *testing.T) {
	o := core.Options{Plan: "fast", Corners: "mc:8:1"}
	back := optionsToWire(o).Options()
	if back.Corners != "mc:8:1" {
		t.Errorf("corner spec lost in wire round-trip: %q", back.Corners)
	}
	b, err := bench.ISPD09("ispd09f22")
	if err != nil {
		t.Fatal(err)
	}
	if JobKey(b, back) != JobKey(b, o) {
		t.Error("wire round-trip changed the content key")
	}
}
