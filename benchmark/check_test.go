package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/ctree"
)

// tinyEnvelope synthesizes a small TI sample with the scale workload's
// settings and returns its envelope and benchmark.
func tinyEnvelope(t *testing.T) ([]byte, *bench.Benchmark) {
	t.Helper()
	b := bench.NewTIPool().Sample(40, 3)
	d, err := renderDesign(b.Name, b)
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := synthesize([]byte(d.Text), core.Options{FastSim: true, LargeInverters: true, Plan: scalePlan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return env, b
}

// corrupt decodes env, applies edit and re-encodes it.
func corrupt(t *testing.T, env []byte, edit func(*core.Result)) []byte {
	t.Helper()
	res, err := core.DecodeResult(bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	edit(res)
	var buf bytes.Buffer
	if err := core.EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstNode returns the first node in pre-order that keep accepts.
func firstNode(tr *ctree.Tree, keep func(*ctree.Node) bool) *ctree.Node {
	var found *ctree.Node
	tr.PreOrder(func(n *ctree.Node) {
		if found == nil && keep(n) {
			found = n
		}
	})
	return found
}

func TestCheckerAcceptsAndHashesWithElapsedZeroed(t *testing.T) {
	env, b := tinyEnvelope(t)
	hash, err := checkEnvelope(env, b)
	if err != nil {
		t.Fatalf("checker rejected a good envelope: %v", err)
	}
	norm, err := zeroElapsed(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(norm); got != hash {
		t.Errorf("zeroElapsed hash %s differs from the checker's re-encoded hash %s", got, hash)
	}
}

func TestCheckerRejectsCorruptEnvelopes(t *testing.T) {
	env, b := tinyEnvelope(t)
	other := bench.NewTIPool().Sample(40, 4)
	cases := []struct {
		name string
		env  []byte
		want *bench.Benchmark
		msg  string
	}{
		{"sink dropped", corrupt(t, env, func(r *core.Result) {
			r.Tree.DeleteSubtree(firstNode(r.Tree, func(n *ctree.Node) bool { return n.Kind == ctree.Sink }))
		}), b, "sinks"},
		{"inverter removed", corrupt(t, env, func(r *core.Result) {
			n := firstNode(r.Tree, func(n *ctree.Node) bool { return n.Kind == ctree.Buffer })
			n.Kind, n.Buf = ctree.Internal, nil
		}), b, "inverted"},
		{"final edited", corrupt(t, env, func(r *core.Result) { r.Final.Skew += 0.5 }), b, "independent evaluation"},
		{"not canonical", bytes.Replace(env, []byte("{"), []byte("{ "), 1), b, "re-encode"},
		{"other benchmark", env, other, "input benchmark"},
	}
	for _, c := range cases {
		_, err := checkEnvelope(c.env, c.want)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: checker returned %v, want an error mentioning %q", c.name, err, c.msg)
		}
	}
}

// TestCheckRunCountsFailures feeds checkRun one run with a mismatching
// repeat and one failed operation.
func TestCheckRunCountsFailures(t *testing.T) {
	env, b := tinyEnvelope(t)
	dir := t.TempDir()
	d, err := renderDesign("ti", b)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{Workload: "scale", Designs: []design{d}}
	if err := os.WriteFile(filepath.Join(dir, "env.json"), env, 0o644); err != nil {
		t.Fatal(err)
	}
	norm, _ := zeroElapsed(env)
	rep := &childReport{
		Envelopes: map[string]envelopeRef{"ti": {File: "env.json"}},
		Ops: []opRecord{
			{Key: "ti", Hash: sha256Hex(norm)},
			{Key: "ti", Hash: "different"},
			{Key: "ti", Err: "boom"},
		},
	}
	cr := checkRun(in, rep, dir)
	if cr.Failed != 2 || len(cr.Problems) != 2 {
		t.Errorf("failed=%d problems=%v, want 2 failures and 2 problems", cr.Failed, cr.Problems)
	}
	if cr.Hashes["ti"] != sha256Hex(norm) {
		t.Errorf("hash %q, want the zeroed envelope's", cr.Hashes["ti"])
	}
}
