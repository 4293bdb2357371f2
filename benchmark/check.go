package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/ctree"
	"contango/internal/eco"
	"contango/internal/eval"
	"contango/internal/service"
)

// cneTolerance is how closely an independent whole-tree evaluation must
// reproduce a result's reported final metrics (relative, floored at 1).
const cneTolerance = 1e-9

// checkEnvelope verifies one result envelope without trusting the run that
// produced it: it decodes and re-encodes byte-identically, carries the
// input benchmark, holds a valid tree that serves every sink of that
// benchmark exactly once at its location and load with no inverted sink,
// and a fresh non-incremental engine with the fast simulator settings every
// workload runs reproduces its final metrics. It returns the sha256 of the envelope with
// the elapsed time zeroed.
func checkEnvelope(env []byte, want *bench.Benchmark) (string, error) {
	res, err := core.DecodeResult(bytes.NewReader(env))
	if err != nil {
		return "", err
	}
	var re bytes.Buffer
	if err := core.EncodeResult(&re, res); err != nil {
		return "", err
	}
	if !bytes.Equal(re.Bytes(), env) {
		return "", fmt.Errorf("envelope does not re-encode byte-identically")
	}
	if res.Tree == nil || res.Benchmark == nil {
		return "", fmt.Errorf("envelope lacks a tree or a benchmark")
	}
	if err := res.Tree.Validate(); err != nil {
		return "", err
	}
	if got, exp := benchText(res.Benchmark), benchText(want); got != exp {
		return "", fmt.Errorf("envelope benchmark differs from the input benchmark")
	}
	if err := checkSinks(res.Tree, want); err != nil {
		return "", err
	}
	eng := core.Options{FastSim: true}.Resolve().Engine
	m, _, err := core.CNEOnly(res.Tree, eng, res.Benchmark.CapLimit)
	if err != nil {
		return "", fmt.Errorf("independent evaluation: %w", err)
	}
	if err := sameMetrics(m, res.Final); err != nil {
		return "", fmt.Errorf("independent evaluation disagrees with the reported final metrics: %w", err)
	}
	res.Elapsed = 0
	var norm bytes.Buffer
	if err := core.EncodeResult(&norm, res); err != nil {
		return "", err
	}
	return sha256Hex(norm.Bytes()), nil
}

func benchText(b *bench.Benchmark) string {
	var buf bytes.Buffer
	if err := bench.Write(&buf, b); err != nil {
		return "unwritable: " + err.Error()
	}
	return buf.String()
}

// checkSinks requires every sink of want exactly once in the tree, at its
// location with its load, and an even number of inverting buffers between
// the source and each sink, counted by walking parent links.
func checkSinks(tr *ctree.Tree, want *bench.Benchmark) error {
	type sinkWant struct {
		x, y, cap float64
		seen      bool
	}
	byName := make(map[string]*sinkWant, len(want.Sinks))
	for _, s := range want.Sinks {
		byName[s.Name] = &sinkWant{x: s.Loc.X, y: s.Loc.Y, cap: s.Cap}
	}
	found := 0
	var err error
	tr.PreOrder(func(n *ctree.Node) {
		if err != nil || n.Kind != ctree.Sink {
			return
		}
		w := byName[n.Name]
		switch {
		case w == nil:
			err = fmt.Errorf("tree sink %q is not in the benchmark", n.Name)
		case w.seen:
			err = fmt.Errorf("sink %q appears twice", n.Name)
		case n.Loc.X != w.x || n.Loc.Y != w.y || n.SinkCap != w.cap:
			err = fmt.Errorf("sink %q at %v with %g fF, benchmark has (%g,%g) with %g fF",
				n.Name, n.Loc, n.SinkCap, w.x, w.y, w.cap)
		}
		if err != nil {
			return
		}
		w.seen = true
		found++
		inversions := 0
		for p := n.Parent; p != nil; p = p.Parent {
			if p.Kind == ctree.Buffer {
				inversions++
			}
		}
		if inversions%2 != 0 {
			err = fmt.Errorf("sink %q is inverted (%d inverting buffers above it)", n.Name, inversions)
		}
	})
	if err != nil {
		return err
	}
	if found != len(want.Sinks) {
		return fmt.Errorf("tree serves %d of the benchmark's %d sinks", found, len(want.Sinks))
	}
	return nil
}

// sameMetrics compares two metric sets field by field within cneTolerance.
func sameMetrics(got, want eval.Metrics) error {
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= cneTolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	pairs := []struct {
		name string
		a, b float64
	}{
		{"skew", got.Skew, want.Skew},
		{"clr", got.CLR, want.CLR},
		{"max_latency", got.MaxLatency, want.MaxLatency},
		{"max_slew", got.MaxSlew, want.MaxSlew},
		{"slew_violations", float64(got.SlewViol), float64(want.SlewViol)},
		{"total_cap", got.TotalCap, want.TotalCap},
		{"cap_pct", got.CapPct, want.CapPct},
		{"clr_spread", got.CLRSpread, want.CLRSpread},
		{"mc_samples", float64(got.MCSamples), float64(want.MCSamples)},
		{"yield", got.Yield, want.Yield},
		{"lat_p50", got.LatP50, want.LatP50},
		{"lat_p95", got.LatP95, want.LatP95},
		{"corners", float64(len(got.PerCorner)), float64(len(want.PerCorner))},
	}
	for _, p := range pairs {
		if !near(p.a, p.b) {
			return fmt.Errorf("%s %v, reported %v", p.name, p.a, p.b)
		}
	}
	for i := range got.PerCorner {
		g, w := got.PerCorner[i], want.PerCorner[i]
		if g.Name != w.Name || !near(g.MinLat, w.MinLat) || !near(g.MaxLat, w.MaxLat) ||
			!near(g.Skew, w.Skew) || !near(g.MaxSlew, w.MaxSlew) || g.SlewViol != w.SlewViol {
			return fmt.Errorf("corner %s: %+v, reported %+v", g.Name, g, w)
		}
	}
	if got.WorstCorner != want.WorstCorner {
		return fmt.Errorf("worst corner %q, reported %q", got.WorstCorner, want.WorstCorner)
	}
	return nil
}

// expectedBench returns the benchmark the envelope of one key must serve.
func expectedBench(in *inputs, key string, ref envelopeRef) (*bench.Benchmark, error) {
	switch in.Workload {
	case "service":
		if ref.Arrival < 0 || ref.Arrival >= len(in.Schedule) {
			return nil, fmt.Errorf("envelope %s names no scheduled request", key)
		}
		var req service.SubmitRequest
		if err := json.Unmarshal([]byte(in.Schedule[ref.Arrival].Body), &req); err != nil {
			return nil, err
		}
		return bench.Read(strings.NewReader(req.BenchText))
	case "eco":
		base, err := bench.Read(strings.NewReader(in.Designs[0].Text))
		if err != nil {
			return nil, err
		}
		for i, text := range in.Deltas {
			if deltaKey(i) == key {
				d, err := eco.ParseDelta(strings.NewReader(text))
				if err != nil {
					return nil, err
				}
				return d.Perturb(base)
			}
		}
		return nil, fmt.Errorf("no input delta %q", key)
	}
	for _, d := range in.Designs {
		if d.Key == key {
			return bench.Read(strings.NewReader(d.Text))
		}
	}
	return nil, fmt.Errorf("no input design %q", key)
}

// checkResult is the checker's verdict on one workload run.
type checkResult struct {
	Problems []string
	Failed   int               // operations that failed or produced a bad result
	Hashes   map[string]string // key -> envelope sha256 with elapsed zeroed
}

// checkRun checks every envelope a workload process kept and every
// operation it recorded: each operation must have succeeded, and every
// library operation on a key must have produced the byte-identical
// envelope (elapsed zeroed) the checker derived for that key.
func checkRun(in *inputs, rep *childReport, dir string) checkResult {
	cr := checkResult{Hashes: map[string]string{}}
	bad := map[string]bool{}
	for key, ref := range rep.Envelopes {
		env, err := os.ReadFile(filepath.Join(dir, ref.File))
		if err == nil {
			var want *bench.Benchmark
			if want, err = expectedBench(in, key, ref); err == nil {
				cr.Hashes[key], err = checkEnvelope(env, want)
			}
		}
		if err != nil {
			bad[key] = true
			cr.Problems = append(cr.Problems, fmt.Sprintf("%s: %v", key, err))
		}
	}
	mismatched := map[string]bool{}
	for _, op := range rep.Ops {
		switch {
		case op.Err != "":
			cr.Failed++
			cr.Problems = append(cr.Problems, fmt.Sprintf("%s: %s", op.Key, op.Err))
		case bad[op.Key]:
			cr.Failed++
		case cr.Hashes[op.Key] == "":
			cr.Failed++
			cr.Problems = append(cr.Problems, fmt.Sprintf("%s: no envelope was kept", op.Key))
		case op.Hash != "" && op.Hash != cr.Hashes[op.Key]:
			cr.Failed++
			if !mismatched[op.Key] {
				mismatched[op.Key] = true
				cr.Problems = append(cr.Problems, fmt.Sprintf("%s: repeated runs produced different envelopes", op.Key))
			}
		}
	}
	if len(rep.Ops) == 0 {
		cr.Problems = append(cr.Problems, "no operation ran")
	}
	return cr
}
