package core

import (
	"math"
	"testing"

	"contango/internal/analysis"
	"contango/internal/bench"
	"contango/internal/spice"
)

// trimmedISPD returns the named contest benchmark cut down to n sinks with
// a proportional capacitance budget (the same protocol as the root bench
// harness), on a private copy.
func trimmedISPD(t *testing.T, name string, n int) *bench.Benchmark {
	b, err := bench.ISPD09(name)
	if err != nil {
		t.Fatal(err)
	}
	b = b.Clone()
	if len(b.Sinks) > n {
		frac := float64(n) / float64(len(b.Sinks))
		b.Sinks = b.Sinks[:n]
		b.CapLimit *= frac
	}
	return b
}

// wholeTree is an Options.WrapEval that substitutes the plain whole-tree
// Engine for the incremental evaluator: the reference path the incremental
// engine is validated against, with identical results and no stage cache.
func wholeTree(ev analysis.Evaluator) analysis.Evaluator {
	return ev.(*spice.Incremental).Eng
}

// TestCascadeIncrementalMatchesWholeTree is the flow-level acceptance
// property: the incremental+parallel cascade must produce skew and CLR
// equal (within 1e-9 ps) to the whole-tree re-evaluation path on a trimmed
// ISPD'09 benchmark, while actually exercising the cache.
func TestCascadeIncrementalMatchesWholeTree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-vs-incremental cascade comparison is slow")
	}
	opts := Options{Plan: cascadeSpec(4, 1)}
	optsFull := opts
	optsFull.WrapEval = wholeTree

	full, err := Synthesize(trimmedISPD(t, "ispd09f22", 30), optsFull)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Synthesize(trimmedISPD(t, "ispd09f22", 30), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(full.Final.Skew - incr.Final.Skew); d > 1e-9 {
		t.Errorf("skew differs by %g ps: full %v incremental %v", d, full.Final.Skew, incr.Final.Skew)
	}
	if d := math.Abs(full.Final.CLR - incr.Final.CLR); d > 1e-9 {
		t.Errorf("CLR differs by %g ps: full %v incremental %v", d, full.Final.CLR, incr.Final.CLR)
	}
	if d := math.Abs(full.Final.TotalCap - incr.Final.TotalCap); d > 1e-9 {
		t.Errorf("capacitance differs by %g fF", d)
	}
	if full.Runs != incr.Runs {
		t.Errorf("evaluation counts diverged: full %d incremental %d", full.Runs, incr.Runs)
	}
	if incr.StageSims == 0 || incr.StageReuses == 0 {
		t.Errorf("incremental cascade did not exercise the cache: sims=%d reuses=%d",
			incr.StageSims, incr.StageReuses)
	}
	if full.StageSims != 0 || full.StageReuses != 0 {
		t.Errorf("whole-tree path unexpectedly used the incremental engine's cache")
	}
	// The whole point: a healthy fraction of stage transients must be
	// served from cache rather than re-integrated.
	reuse := float64(incr.StageReuses) / float64(incr.StageSims+incr.StageReuses)
	if reuse < 0.25 {
		t.Errorf("cache reuse ratio %.2f, want >= 0.25", reuse)
	}
}

// TestParallelCascadeDeterminism: the cascade must produce identical
// results at different worker counts.
func TestParallelCascadeDeterminism(t *testing.T) {
	b := tinyBench()
	serial, err := Synthesize(b, Options{Plan: cascadeSpec(3, 1), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Synthesize(tinyBench(), Options{Plan: cascadeSpec(3, 1), Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Final.Skew != par.Final.Skew || serial.Final.CLR != par.Final.CLR {
		t.Errorf("parallelism changed results: serial %v / %v, parallel %v / %v",
			serial.Final.Skew, serial.Final.CLR, par.Final.Skew, par.Final.CLR)
	}
}
