// Package opt implements Contango's SPICE-driven optimization passes (paper
// Sections IV-E through IV-I): iterative top-down wiresizing (Algorithm 1),
// top-down wiresnaking, bottom-level fine-tuning, and trunk/branch buffer
// sizing with sliding and interleaving.
//
// Every pass follows the paper's CNE/IVC discipline: mutate the tree, run a
// Clock-Network Evaluation with the accurate engine, and keep the change
// only if the objective improved without slew or capacitance violations
// (Improvement- & Violation-Checking); otherwise the saved solution is
// restored and the pass hands control to the next optimization.
//
// Passes read and write the tree's arena by slot: they set slot fields
// (WidthIdx, Snake, BufN) directly and use the arena's structural mutators
// (InsertOnEdge, RemoveDegree2, SlideDegree2). The IVC snapshot is a copy
// into one spare arena per Context, restored in place on a rejected round.
// An incremental evaluator installed as Context.Eng finds each round's
// dirty cone from stage content, so any mutation is seen, and it
// re-simulates only that cone instead of the whole network.
package opt

import (
	"math"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/eval"
	"contango/internal/geom"
)

// Objective selects what a pass is trying to reduce.
type Objective int

const (
	// MinSkew optimizes nominal skew at the reference corner.
	MinSkew Objective = iota
	// MinCLR optimizes the multicorner Clock Latency Range.
	MinCLR
	// MinBoth optimizes CLR but never lets skew regress by more than it
	// gains (used by the green "both objectives" box in the paper's Fig. 1).
	MinBoth
)

// value extracts the scalar being minimized.
func (o Objective) value(m eval.Metrics) float64 {
	switch o {
	case MinCLR:
		return m.CLR
	case MinBoth:
		return m.CLR + m.Skew
	default:
		return m.Skew
	}
}

// Context carries the state shared by all passes. Eng is any accurate
// evaluator: the transient engine for the paper's SPICE-driven passes, or
// the cheap Elmore model for the construction-time pre-correction phase
// ("use simple analytical models at the first steps of the proposed flow",
// Section III-A).
type Context struct {
	Tree     *ctree.Tree
	Eng      analysis.Evaluator
	Obs      *geom.ObstacleSet
	CapLimit float64 // hard capacitance limit, fF (0 = unlimited)
	// MaxRounds bounds the improvement loop of each pass (default 10).
	MaxRounds int
	// Check, when non-nil, is consulted before every improvement round; a
	// non-nil error aborts the pass immediately (context cancellation from
	// the service layer, so killed jobs stop burning simulator runs).
	Check func() error
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})

	// cached state from the most recent CNE
	lastResults []*analysis.Result
	lastMetrics eval.Metrics
	haveCNE     bool
	// spare holds the IVC snapshot of the arena each round is judged
	// against.
	spare ctree.Arena
}

// arena returns the tree's arena, the form every pass edits.
func (cx *Context) arena() *ctree.Arena { return cx.Tree.Arena() }

// minGain is the smallest objective improvement (ps) an IVC round must
// make to count.
const minGain = 0.05

// DefaultMaxRounds is the per-pass round budget used when MaxRounds is
// unset (core.Options.Resolve makes it explicit).
const DefaultMaxRounds = 16

func (cx *Context) rounds() int {
	if cx.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return cx.MaxRounds
}

func (cx *Context) logf(format string, args ...interface{}) {
	if cx.Log != nil {
		cx.Log(format, args...)
	}
}

// CNE runs the accurate evaluator at every corner in one call, so
// extraction is shared and the per-corner simulations can be scheduled over
// one worker pool, and caches the results.
func (cx *Context) CNE() ([]*analysis.Result, eval.Metrics, error) {
	a := cx.arena()
	rs, err := cx.Eng.EvaluateCorners(cx.Tree, a.Tech.Corners)
	if err != nil {
		return nil, eval.Metrics{}, err
	}
	m, err := eval.FromResults(a, corners.FromTech(a.Tech), rs, cx.CapLimit)
	if err != nil {
		return nil, eval.Metrics{}, err
	}
	cx.lastResults, cx.lastMetrics, cx.haveCNE = rs, m, true
	return rs, m, nil
}

// Baseline returns cached CNE results, evaluating if needed.
func (cx *Context) Baseline() ([]*analysis.Result, eval.Metrics, error) {
	if cx.haveCNE {
		return cx.lastResults, cx.lastMetrics, nil
	}
	return cx.CNE()
}

// invalidate drops the CNE cache after an uncommitted tree mutation.
func (cx *Context) invalidate() { cx.haveCNE = false }

// worse reports whether candidate metrics violate constraints more than the
// baseline did: more slew violations, or capacitance newly/further over the
// limit. Judging violations relatively lets the passes make progress on
// networks that start out violating (e.g., right after a lossy detour)
// without ever making them worse.
func (cx *Context) worse(base, cand eval.Metrics) bool {
	if cand.SlewViol > base.SlewViol {
		return true
	}
	if cx.CapLimit > 0 && cand.TotalCap > cx.CapLimit && cand.TotalCap > base.TotalCap+1e-9 {
		return true
	}
	return false
}

// improveLoop runs mutate-evaluate-check rounds until the objective stops
// improving, a violation appears, or the round budget is exhausted. Each
// round's mutate callback returns false when it has nothing left to try.
// The tree always ends in the best state seen: each round first copies the
// arena into the spare, and a rejected round copies it back.
func (cx *Context) improveLoop(name string, obj Objective, mutate func(res []*analysis.Result) bool) error {
	res, m, err := cx.Baseline()
	if err != nil {
		return err
	}
	best := obj.value(m)
	baseM := m
	a := cx.arena()
	for round := 0; round < cx.rounds(); round++ {
		if cx.Check != nil {
			if err := cx.Check(); err != nil {
				return err
			}
		}
		cx.spare.CopyFrom(a)
		snapRes, snapM := cx.lastResults, cx.lastMetrics
		if !mutate(res) {
			break
		}
		cx.invalidate()
		var nm eval.Metrics
		res2, nm, err := cx.CNE()
		if err != nil {
			return err
		}
		if cx.worse(baseM, nm) || obj.value(nm) > best-minGain {
			// IVC fail: restore the saved solution and stop the pass.
			a.CopyFrom(&cx.spare)
			cx.lastResults, cx.lastMetrics, cx.haveCNE = snapRes, snapM, true
			cx.logf("%s: round %d rejected (%.3f -> %.3f, worse=%v, viol %d->%d, maxslew %.1f->%.1f, cap %.0f->%.0f)",
				name, round, best, obj.value(nm), cx.worse(baseM, nm),
				baseM.SlewViol, nm.SlewViol, baseM.MaxSlew, nm.MaxSlew, baseM.TotalCap, nm.TotalCap)
			break
		}
		best = obj.value(nm)
		baseM = nm
		res = res2
		cx.logf("%s: round %d accepted, %s", name, round, nm)
	}
	return nil
}

// wideIdx/narrowIdx are cached per call sites for clarity.
func (cx *Context) wideIdx() int   { return cx.arena().Tech.Wide() }
func (cx *Context) narrowIdx() int { return cx.arena().Tech.Narrow() }

// capHeadroom returns how much capacitance (fF) may still be added before
// hitting the limit; +Inf when unlimited.
func (cx *Context) capHeadroom() float64 {
	if cx.CapLimit <= 0 {
		return math.Inf(1)
	}
	return cx.CapLimit - cx.arena().TotalCap()
}

// topDown walks the arena breadth-first from the root's children, passing
// each slot the slow-down slack that moves on its ancestor edges have
// consumed; visit returns the consumed slack the slot's children inherit.
// Children are read after visit returns, so slots a move inserts above the
// visited one (repeater pairs) are not walked.
func topDown(a *ctree.Arena, visit func(n int32, used float64) float64) {
	type item struct {
		n    int32
		used float64
	}
	var queue []item
	for _, c := range a.Children(a.Root()) {
		queue = append(queue, item{c, 0})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		used := visit(it.n, it.used)
		for _, c := range a.Children(it.n) {
			queue = append(queue, item{c, used})
		}
	}
}

// worstStageSlew maps each stage driver to the worst slew inside its stage
// over every corner's result.
func worstStageSlew(res []*analysis.Result) map[int]float64 {
	out := map[int]float64{}
	for _, r := range res {
		for id, v := range r.StageSlew {
			if v > out[id] {
				out[id] = v
			}
		}
	}
	return out
}
