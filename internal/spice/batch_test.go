package spice

import (
	"math/rand"
	"reflect"
	"testing"

	"contango/internal/corners"
	"contango/internal/sched"
	"contango/internal/tech"
)

// TestEngineEvaluateCornersBitIdentical: the shared-extraction corner loop
// must reproduce per-corner Evaluate calls bit for bit, and the pooled
// stage scratch must not perturb repeated evaluations.
func TestEngineEvaluateCornersBitIdentical(t *testing.T) {
	tk := tech.Default45()
	tr := randomStagedTree(rand.New(rand.NewSource(11)), tk)
	cs, err := corners.Build("pvt5", tk)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	serial := make([]interface{}, 0, len(cs.Corners))
	for _, c := range cs.Corners {
		r, err := e.Evaluate(tr, c)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, r)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := e.EvaluateCorners(tr, cs.Corners)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], serial[i]) {
				t.Errorf("pass %d corner %q: EvaluateCorners differs from Evaluate", pass, cs.Corners[i].Name)
			}
		}
	}
}

// TestIncrementalCornersMatchEngine: the cached, pooled incremental
// evaluator agrees exactly with the plain engine across a corner set, both
// on a cold cache and after a warm re-evaluation.
func TestIncrementalCornersMatchEngine(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(23))
	tr := randomStagedTree(rng, tk)
	cs, err := corners.Build("mc:4:1", tk)
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	ie := NewIncremental(tr, New(), 4)
	want, err := eng.EvaluateCorners(tr, cs.Corners)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := ie.EvaluateCorners(tr, cs.Corners)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("pass %d corner %q: incremental differs from engine", pass, cs.Corners[i].Name)
			}
		}
	}
	// A mutation round then a revert must still match the engine exactly.
	randomMove(rng, tr)
	want2, err := eng.EvaluateCorners(tr, cs.Corners)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ie.EvaluateCorners(tr, cs.Corners)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got2 {
		if !reflect.DeepEqual(got2[i], want2[i]) {
			t.Errorf("post-move corner %q: incremental differs from engine", cs.Corners[i].Name)
		}
	}
}

// TestIncrementalChunkedMatchesOneCall: splitting a Monte Carlo sweep into
// chunks of one worker budget's corners returns exactly what one unsplit
// engine call returns, at every budget.
func TestIncrementalChunkedMatchesOneCall(t *testing.T) {
	tk := tech.Default45()
	tr := randomStagedTree(rand.New(rand.NewSource(31)), tk)
	cs, err := corners.Build("mc:7:2", tk)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New().EvaluateCorners(tr, cs.Corners)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4} {
		ie := NewIncremental(tr, New(), p)
		splits := 0
		ch := &sched.Chunked{Eval: ie, Chunk: p, OnSplit: func(n int) { splits = n }}
		got, err := ch.EvaluateCorners(tr, cs.Corners)
		if err != nil {
			t.Fatal(err)
		}
		if wantSplits := (len(cs.Corners) + p - 1) / p; splits != wantSplits {
			t.Errorf("parallelism %d: %d chunks, want %d", p, splits, wantSplits)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: chunked evaluation differs from one engine call", p)
		}
	}
}
