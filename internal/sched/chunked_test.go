package sched

import (
	"errors"
	"fmt"
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// fakeCornerEval is an Evaluator that returns one canned result
// pointer per corner name and records call shapes, so tests can assert
// chunk boundaries and that reassembly preserves order and identity.
type fakeCornerEval struct {
	results    map[string]*analysis.Result
	batchCalls [][]string // corner names per EvaluateCorners call
}

func (f *fakeCornerEval) Name() string { return "fake" }

func (f *fakeCornerEval) Evaluate(tr *ctree.Tree, c tech.Corner) (*analysis.Result, error) {
	return f.results[c.Name], nil
}

func (f *fakeCornerEval) EvaluateCorners(tr *ctree.Tree, cs []tech.Corner) ([]*analysis.Result, error) {
	var names []string
	out := make([]*analysis.Result, 0, len(cs))
	for _, c := range cs {
		names = append(names, c.Name)
		out = append(out, f.results[c.Name])
	}
	f.batchCalls = append(f.batchCalls, names)
	return out, nil
}

func makeCorners(n int) ([]tech.Corner, map[string]*analysis.Result) {
	cs := make([]tech.Corner, n)
	rs := make(map[string]*analysis.Result, n)
	for i := range cs {
		name := fmt.Sprintf("c%02d", i)
		cs[i] = tech.Corner{Name: name, Vdd: 1.0}
		rs[name] = &analysis.Result{}
	}
	return cs, rs
}

func TestChunkedPassthroughSmallCalls(t *testing.T) {
	cs, rs := makeCorners(3)
	inner := &fakeCornerEval{results: rs}
	yields := 0
	c := &Chunked{Eval: inner, Chunk: 4, Yield: func() error { yields++; return nil }}
	out, err := c.EvaluateCorners(nil, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.batchCalls) != 1 || len(inner.batchCalls[0]) != 3 {
		t.Fatalf("small call not passed through whole: %v", inner.batchCalls)
	}
	if yields != 0 {
		t.Fatalf("small call yielded %d times", yields)
	}
	if c.Name() != "fake" {
		t.Fatalf("name not forwarded: %q", c.Name())
	}
	for i, r := range out {
		if r != rs[cs[i].Name] {
			t.Fatalf("result %d is not the inner evaluator's", i)
		}
	}
}

// A 10-corner call at chunk 3 runs as 3+3+3+1 with a yield between each
// chunk, and reassembles the exact per-corner results in input order.
func TestChunkedSplitsAndReassembles(t *testing.T) {
	cs, rs := makeCorners(10)
	inner := &fakeCornerEval{results: rs}
	yields, splits := 0, 0
	c := &Chunked{Eval: inner, Chunk: 3,
		Yield:   func() error { yields++; return nil },
		OnSplit: func(n int) { splits = n }}
	out, err := c.EvaluateCorners(nil, cs)
	if err != nil {
		t.Fatal(err)
	}
	wantShape := []int{3, 3, 3, 1}
	if len(inner.batchCalls) != len(wantShape) {
		t.Fatalf("chunk calls = %v, want shape %v", inner.batchCalls, wantShape)
	}
	for i, call := range inner.batchCalls {
		if len(call) != wantShape[i] {
			t.Fatalf("chunk %d has %d corners, want %d", i, len(call), wantShape[i])
		}
	}
	if yields != 3 || splits != 4 {
		t.Fatalf("yields = %d, splits = %d, want 3 and 4", yields, splits)
	}
	if len(out) != len(cs) {
		t.Fatalf("reassembled %d results, want %d", len(out), len(cs))
	}
	for i, r := range out {
		if r != rs[cs[i].Name] {
			t.Fatalf("result %d out of order after reassembly", i)
		}
	}
}

func TestChunkedYieldErrorAborts(t *testing.T) {
	cs, rs := makeCorners(8)
	inner := &fakeCornerEval{results: rs}
	boom := errors.New("canceled")
	c := &Chunked{Eval: inner, Chunk: 4, Yield: func() error { return boom }}
	if _, err := c.EvaluateCorners(nil, cs); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want yield error", err)
	}
	if len(inner.batchCalls) != 1 {
		t.Fatalf("evaluation continued after yield error: %v", inner.batchCalls)
	}
}
