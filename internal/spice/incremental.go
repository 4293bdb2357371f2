package spice

import (
	"runtime"
	"sync"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// Incremental is the incremental, parallel form of the transient evaluator.
// It keeps a per-(corner, edge) cache of stage simulation results, so
// evaluating the network after a candidate move re-simulates only the dirty
// cone: the stages the move changed and everything downstream of them
// (whose input waveforms shift). Every evaluation extracts the whole tree
// afresh; the cone is found by content alone, so any mutation — through
// the ctree operations or a direct field write — is seen.
//
// A cached stage transient is reused when (a) the stage's content signature
// matches — same driver parameters and RC arrays, as hashed by the
// extractor — and (b) the stage sees the same input waveform it was
// simulated with, either because the whole upstream chain was reused or by
// direct sample comparison against the recorded input. Two generations of
// results are kept per stage, which makes the cascade's characteristic
// apply-evaluate-revert patterns (model probes, rejected IVC rounds) cheap:
// the revert's evaluation finds the pre-mutation generation and promotes
// it instead of re-integrating the cone.
//
// Each supply corner is one task, or two adjacent corners whose
// interconnect derates are equal (the default ispd09 pair) share one: a
// task integrates the rising and falling launch edges of every corner it
// holds together in one kernel sweep over one RC set-up, whatever misses
// the cache. Independent stage simulations — across sibling subtrees and
// tasks — run on a bounded worker pool (Parallelism goroutines, following
// the synthesis service's fixed-pool pattern). Because each stage
// simulation is deterministic, a column's arithmetic does not depend on
// which columns share its sweep, and stages only depend on their upstream
// chain, results are bit-identical to the serial whole-tree Engine at any
// parallelism level.
//
// An Incremental is not safe for concurrent Evaluate calls; the
// parallelism is internal. Engine knobs (Dt, MaxSeg, SourceSlew, SettleTol)
// must not change between evaluations — call Reset after retuning them.
type Incremental struct {
	// Eng supplies the simulation parameters and accumulates the Runs
	// counter, exactly as if it had evaluated the network itself.
	Eng *Engine
	// Parallelism bounds concurrent stage simulations (1 = serial).
	Parallelism int

	tree     *ctree.Tree
	launches map[launchKey]map[int][]*stageEntry
	// net is re-extracted in place by every evaluation.
	net analysis.Net

	// Stats counts evaluator work across the evaluator's lifetime.
	Stats IncrementalStats
}

// IncrementalStats counts incremental-evaluator work.
type IncrementalStats struct {
	Evals      int // corner evaluations performed
	StagesSim  int // stage transients actually integrated
	StagesHit  int // stage transients served from the cache
	FullStages int // stage count at the last evaluation (cone-size context)
}

// launchKey identifies one cached launch: a supply corner and the direction
// of the source transition.
type launchKey struct {
	corner tech.Corner
	rising bool
}

// stageEntry caches one stage transient for one launch: the stage content
// it was integrated for, the input waveform it was driven with (nil for the
// source stage, whose ramp is deterministic), and the measurements.
type stageEntry struct {
	sig   uint64
	input *Waveform
	res   stageResult
}

// NewIncremental creates an incremental evaluator over eng's parameters for
// tr. A nil eng gets production defaults (New). parallelism <= 0 selects
// GOMAXPROCS workers.
func NewIncremental(tr *ctree.Tree, eng *Engine, parallelism int) *Incremental {
	if eng == nil {
		eng = New()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	ie := &Incremental{Eng: eng, Parallelism: parallelism}
	ie.bind(tr)
	return ie
}

// Name implements analysis.Evaluator.
func (ie *Incremental) Name() string { return "transient-incremental" }

// bind points the evaluator at tr, dropping the cache when the tree changes.
func (ie *Incremental) bind(tr *ctree.Tree) {
	if ie.launches != nil && ie.tree == tr {
		return
	}
	ie.tree = tr
	ie.launches = make(map[launchKey]map[int][]*stageEntry)
}

// Reset drops every cached stage result. Call it after changing Eng's
// integration parameters.
func (ie *Incremental) Reset() {
	ie.launches = make(map[launchKey]map[int][]*stageEntry)
}

// Evaluate implements analysis.Evaluator with per-stage caching and
// parallel dirty-cone simulation.
func (ie *Incremental) Evaluate(tr *ctree.Tree, corner tech.Corner) (*analysis.Result, error) {
	rs, err := ie.EvaluateCorners(tr, []tech.Corner{corner})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// EvaluateCorners implements analysis.Evaluator: one extraction, then
// one task per corner group (cornerGroups) scheduled over the shared worker
// pool. A task runs both launch edges of its one or two corners
// (Engine.simulateCorners); cache matching, hits and commits stay per
// (corner, edge).
func (ie *Incremental) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*analysis.Result, error) {
	ie.bind(tr)
	net := &ie.net
	if err := net.Extract(tr.Arena(), ie.Eng.MaxSeg); err != nil {
		return nil, err
	}
	ie.Stats.FullStages = len(net.Stages)

	outs := make([]cornerOutcome, len(corners))
	prev := make([][2]map[int][]*stageEntry, len(corners))
	for ci, c := range corners {
		for k, rising := range launchEdges {
			prev[ci][k] = ie.launches[launchKey{c, rising}]
		}
	}
	groups := cornerGroups(corners)
	sem := make(chan struct{}, ie.Parallelism)
	run := func(g cornerGroup) {
		ie.Eng.simulateCorners(net, corners[g.start:g.end], prev[g.start:g.end], sem, outs[g.start:g.end])
	}
	if ie.Parallelism <= 1 {
		for _, g := range groups {
			run(g)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(groups))
		for _, g := range groups {
			go func(g cornerGroup) {
				defer wg.Done()
				run(g)
			}(g)
		}
		wg.Wait()
	}

	// Commit caches and stats in corner order.
	results := make([]*analysis.Result, len(corners))
	for ci, c := range corners {
		out := &outs[ci]
		for k, rising := range launchEdges {
			ie.launches[launchKey{c, rising}] = out.entries[k]
		}
		ie.Stats.StagesSim += out.simulated
		ie.Stats.StagesHit += out.reused
		ie.Eng.Runs++
		ie.Stats.Evals++
		results[ci] = out.res
	}
	return results, nil
}

// matchEntry finds a cached transient valid for a stage with the given
// content signature and input waveform. headFast short-circuits the sample
// comparison for the newest entry when the upstream chain is known
// unchanged (source stages, or a parent served from its own newest entry).
func matchEntry(entries []*stageEntry, sig uint64, vin *Waveform, headFast bool) *stageEntry {
	for gi, ent := range entries {
		if ent.sig != sig {
			continue
		}
		if vin == nil { // source stage: deterministic ramp
			return ent
		}
		if headFast && gi == 0 {
			return ent
		}
		if waveEqual(vin, ent.input) {
			return ent
		}
	}
	return nil
}

// waveEqual reports exact sample-level equality of two waveforms.
func waveEqual(a, b *Waveform) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.T0 != b.T0 || a.Dt != b.Dt || a.V0 != b.V0 || len(a.V) != len(b.V) {
		return false
	}
	for i := range a.V {
		if a.V[i] != b.V[i] {
			return false
		}
	}
	return true
}

var _ analysis.Evaluator = (*Incremental)(nil)
