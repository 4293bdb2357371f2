package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"contango/internal/ctree"
	"contango/internal/ctree/ctreetest"
)

// synthTiny runs a cheap cascade for codec tests.
func synthTiny(t *testing.T) *Result {
	t.Helper()
	res, err := Synthesize(tinyBench(), Options{MaxRounds: 2, Cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultCodecRoundTrip(t *testing.T) {
	res := synthTiny(t)

	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The scalar payload round-trips exactly.
	if got.Runs != res.Runs || got.Elapsed != res.Elapsed ||
		got.StageSims != res.StageSims || got.StageReuses != res.StageReuses ||
		got.Buffers != res.Buffers || got.InvertedSinks != res.InvertedSinks ||
		got.AddedInverters != res.AddedInverters ||
		got.Legalization != res.Legalization || got.Composite != res.Composite {
		t.Errorf("counters drifted: got %+v want %+v", got, res)
	}
	if !reflect.DeepEqual(got.Stages, res.Stages) {
		t.Errorf("stage records drifted:\n got %+v\nwant %+v", got.Stages, res.Stages)
	}
	if !reflect.DeepEqual(got.Final, res.Final) {
		t.Errorf("final metrics drifted: got %+v want %+v", got.Final, res.Final)
	}

	// The benchmark keeps its content address.
	if got.Benchmark.Hash() != res.Benchmark.Hash() {
		t.Error("benchmark content address changed through the codec")
	}

	// The tree round-trips structurally and electrically.
	if err := got.Tree.Validate(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	ga, ra := got.Tree.Arena(), res.Tree.Arena()
	if ga.Len() != ra.Len() || ga.NumNodes() != ra.NumNodes() {
		t.Fatalf("node table drifted: %d/%d vs %d/%d", ga.Len(), ga.NumNodes(), ra.Len(), ra.NumNodes())
	}
	if ga.Wirelength() != ra.Wirelength() || ga.TotalCap() != ra.TotalCap() {
		t.Error("tree electrical totals drifted through the codec")
	}
	if ctreetest.Digest(ga) != ctreetest.Digest(ra) {
		t.Fatal("slot fields, routes or child order drifted through the codec")
	}

	// Re-encoding the decoded result is byte-identical: the codec is a
	// fixed point, which is what lets a disk-served cache hit render the
	// same wire JSON as the original run.
	var buf2 bytes.Buffer
	if err := EncodeResult(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("encode(decode(encode(r))) != encode(r)")
	}

	// A decoded tree still drives the SVG renderer to the same bytes.
	var svgA, svgB bytes.Buffer
	if err := RenderSVG(&svgA, res); err != nil {
		t.Fatal(err)
	}
	if err := RenderSVG(&svgB, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(svgA.Bytes(), svgB.Bytes()) {
		t.Error("decoded result renders a different SVG")
	}
}

func TestDecodeResultRejectsDamage(t *testing.T) {
	res := synthTiny(t)
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}

	env := buf.String()
	bufN := regexp.MustCompile(`"N":[0-9]+`).FindStringIndex(env)
	if bufN == nil || !strings.Contains(env, `"kind":1`) {
		t.Fatal("fixture lacks a buffer or an internal node to damage")
	}
	cases := map[string]string{
		"not json":           "{broken",
		"wrong version":      strings.Replace(env, `"version":1`, `"version":99`, 1),
		"dangling parent":    strings.Replace(env, `"parent":0`, `"parent":99999`, 1),
		"buffer no inverter": env[:bufN[0]] + `"N":0` + env[bufN[1]:],
		"unknown kind":       strings.Replace(env, `"kind":1`, `"kind":9`, 1),
	}
	for name, text := range cases {
		if _, err := DecodeResult(strings.NewReader(text)); err == nil {
			t.Errorf("%s: decode accepted damaged input", name)
		}
	}
	if err := EncodeResult(&buf, nil); err == nil {
		t.Error("encoding a nil result should fail")
	}
}

// TestTreeViewWritesReachEncode edits decoded results through the tree
// handle the way the end-to-end benchmark module corrupts envelopes: a
// Kind/Buf write on a PreOrder view reaches EncodeResult, DeleteSubtree on
// a view drops the sink, and a view write that breaks validity fails
// Validate.
func TestTreeViewWritesReachEncode(t *testing.T) {
	var env bytes.Buffer
	if err := EncodeResult(&env, synthTiny(t)); err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) *Result {
		t.Helper()
		r, err := DecodeResult(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	reencode := func(r *Result) *Result {
		t.Helper()
		var out bytes.Buffer
		if err := EncodeResult(&out, r); err != nil {
			t.Fatal(err)
		}
		return decode(out.Bytes())
	}
	first := func(r *Result, kind ctree.Kind) *ctree.Node {
		var found *ctree.Node
		r.Tree.PreOrder(func(n *ctree.Node) {
			if found == nil && n.Kind == kind {
				found = n
			}
		})
		if found == nil {
			t.Fatalf("fixture has no %v node", kind)
		}
		return found
	}

	r := decode(env.Bytes())
	n := first(r, ctree.Buffer)
	n.Kind, n.Buf = ctree.Internal, nil
	a := reencode(r).Tree.Arena()
	if a.Kind[n.ID] != ctree.Internal || a.BufN[n.ID] != 0 {
		t.Errorf("inverter removed through a view still encodes as %v with %d inverters", a.Kind[n.ID], a.BufN[n.ID])
	}

	r = decode(env.Bytes())
	sinks := len(r.Tree.Arena().Sinks())
	s := first(r, ctree.Sink)
	r.Tree.DeleteSubtree(s)
	if a := reencode(r).Tree.Arena(); len(a.Sinks()) != sinks-1 || a.Alive.Test(s.ID) {
		t.Errorf("DeleteSubtree(view) left %d of %d sinks", len(a.Sinks()), sinks)
	}

	r = decode(env.Bytes())
	first(r, ctree.Internal).Kind = ctree.Buffer
	if err := r.Tree.Validate(); err == nil {
		t.Error("a view turned into a buffer without a composite passed Validate")
	}
}

// TestResultCodecUnnamedBench: a benchmark without a name (inline bench
// text with no name line) is written as a bare "name" line, which must
// decode back to the empty name.
func TestResultCodecUnnamedBench(t *testing.T) {
	res := synthTiny(t)
	res.Benchmark = res.Benchmark.Clone()
	res.Benchmark.Name = ""
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode of an unnamed benchmark's envelope: %v", err)
	}
	if got.Benchmark.Name != "" || got.Benchmark.Hash() != res.Benchmark.Hash() {
		t.Errorf("benchmark drifted through the codec: name %q", got.Benchmark.Name)
	}
	var again bytes.Buffer
	if err := EncodeResult(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("re-encoding the decoded result changed the envelope")
	}
}

func TestResultClone(t *testing.T) {
	res := synthTiny(t)
	cp := res.Clone()

	// Content matches…
	a, _ := json.Marshal(resultFingerprint(res))
	b, _ := json.Marshal(resultFingerprint(cp))
	if !bytes.Equal(a, b) {
		t.Fatal("clone differs from original")
	}
	// …but nothing mutable is shared.
	cp.Final.Skew = -123
	cp.Stages[0].Runs = -1
	cp.Benchmark.Sinks[0].Cap = -1
	ca := cp.Tree.Arena()
	top := ca.Children(ca.Root())[0]
	ca.Snake[top] = 999

	if res.Final.Skew == -123 || res.Stages[0].Runs == -1 {
		t.Error("clone shares scalar/stage storage with the original")
	}
	if res.Benchmark.Sinks[0].Cap == -1 {
		t.Error("clone shares the benchmark sink slice")
	}
	if res.Tree.Arena().Snake[top] == 999 {
		t.Error("clone shares tree nodes")
	}
	if (*Result)(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

// resultFingerprint projects the comparable parts of a result.
func resultFingerprint(r *Result) map[string]interface{} {
	return map[string]interface{}{
		"final":  r.Final,
		"stages": r.Stages,
		"runs":   r.Runs,
		"bench":  r.Benchmark.Hash(),
		"nodes":  r.Tree.Arena().NumNodes(),
		"wl":     r.Tree.Arena().Wirelength(),
	}
}

// TestDecodeResultRejectsSeedCorpus: every FuzzDecodeResult seed except
// the two accepted envelopes is damage DecodeResult must reject with the
// reason the seed is named after.
func TestDecodeResultRejectsSeedCorpus(t *testing.T) {
	want := map[string]string{
		"not-json":                "decode result",
		"wrong-version":           "unsupported version",
		"dangling-parent":         "dangling parent",
		"dangling-child":          "dangling child",
		"buffer-no-inverter":      "inverters",
		"unknown-kind":            "unknown kind",
		"two-sources":             "two source nodes",
		"child-under-two-parents": "wrong parent",
		"parent-child-disagree":   "wrong parent",
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeResult")
	for name, msg := range want {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		env, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeResult(strings.NewReader(env)); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: DecodeResult error %v, want one mentioning %q", name, err, msg)
		}
	}
}

// FuzzDecodeResult feeds arbitrary bytes to DecodeResult, whose arena
// decoder and Arena.Validate are the structural check on every tree that
// arrives from outside. It must never panic, and an envelope it accepts must encode to
// a fixed point: decoding the re-encoded bytes and encoding again gives
// the same bytes. The seed corpus (testdata/fuzz/FuzzDecodeResult) holds
// the envelope of TestResultCodecRoundTrip, the unnamed-benchmark envelope
// of TestResultCodecUnnamedBench, every damaged case of
// TestDecodeResultRejectsDamage, and the node-table damage the arena
// decoder rejects (TestDecodeResultRejectsSeedCorpus).
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := EncodeResult(&first, res); err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		again, err := DecodeResult(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		var second bytes.Buffer
		if err := EncodeResult(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not byte-stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
