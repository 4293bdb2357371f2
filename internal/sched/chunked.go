package sched

import (
	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// Chunked is the sweep splitter: an evaluator shim that breaks every
// multi-corner EvaluateCorners call into chunks of at most Chunk corners
// and calls Yield between them, so a large Monte Carlo sweep releases its
// worker slot at chunk boundaries instead of holding it for the whole
// corner set. The chunk results are reassembled by concatenation — the
// identical per-corner result slice the unsplit call would produce (the
// wrapped evaluator simulates each corner independently and its
// per-(corner,edge) caches key by corner identity), so wrapping an
// evaluator in Chunked never changes results, only when the slot is held.
type Chunked struct {
	// Eval is the wrapped accurate evaluator (the incremental engine).
	Eval analysis.Evaluator
	// Chunk is the maximum corners evaluated per slot tenure; calls with
	// that many corners or fewer (and any Chunk <= 0) pass through whole.
	// The service sets it to a multiple of the job's worker budget, so no
	// tenure ends on a ragged, under-filled batch of corner tasks.
	Chunk int
	// Yield, when non-nil, runs between chunks. A non-nil error aborts the
	// evaluation (scheduler shut down, run context canceled).
	Yield func() error
	// OnSplit, when non-nil, observes each split call's chunk count
	// (metrics hook).
	OnSplit func(chunks int)
}

var _ analysis.Evaluator = (*Chunked)(nil)

// Name returns the wrapped evaluator's name.
func (c *Chunked) Name() string { return c.Eval.Name() }

// Evaluate passes single-corner evaluations through unchanged.
func (c *Chunked) Evaluate(tr *ctree.Tree, corner tech.Corner) (*analysis.Result, error) {
	return c.Eval.Evaluate(tr, corner)
}

// EvaluateCorners evaluates the corner list in chunks, yielding between
// them, and returns the concatenated per-corner results in input order.
func (c *Chunked) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*analysis.Result, error) {
	chunk := c.Chunk
	if chunk <= 0 || len(corners) <= chunk {
		return c.Eval.EvaluateCorners(tr, corners)
	}
	if c.OnSplit != nil {
		c.OnSplit((len(corners) + chunk - 1) / chunk)
	}
	out := make([]*analysis.Result, 0, len(corners))
	for start := 0; start < len(corners); start += chunk {
		if start > 0 && c.Yield != nil {
			if err := c.Yield(); err != nil {
				return nil, err
			}
		}
		end := start + chunk
		if end > len(corners) {
			end = len(corners)
		}
		rs, err := c.Eval.EvaluateCorners(tr, corners[start:end])
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}
