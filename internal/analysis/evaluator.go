package analysis

import (
	"contango/internal/ctree"
	"contango/internal/tech"
)

// Result holds one corner's evaluation, indexed by arena slot: every slice
// has one entry per slot of the evaluated arena (Net.Slots). Rise[id] is
// the arrival time (ps) at the sink in slot id of the edge launched by a
// rising source transition; Fall[id] is for a falling source transition.
// Evaluators that do not distinguish transitions (Elmore, two-pole) report
// identical values. Has records which arrivals were measured; an entry
// that was not measured reads 0.
type Result struct {
	Corner   tech.Corner
	Rise     []float64
	Fall     []float64
	SinkSlew []float64 // worst-case 10-90% slew at each sink, ps
	MaxSlew  float64   // worst slew anywhere in the network, ps
	SlewViol int       // number of nodes exceeding the tech slew limit
	// StageSlew is indexed by stage driver slot (a buffer, or the root for
	// the clock source's stage): the worst slew inside the stage it drives,
	// ps, 0 where no transition was measured. The wire passes use it to
	// budget how much capacitance each region can still absorb.
	StageSlew []float64
	// Has holds each slot's presence bits: HasRise and HasFall mark the
	// launch edges whose arrival was measured at the sink. A sink's
	// SinkSlew is measured when either bit is set.
	Has []uint8
}

// Presence bits of Result.Has.
const (
	HasRise uint8 = 1 << iota
	HasFall
)

// NewResult returns an empty result for an arena of n slots, its float
// slices cut from one allocation.
func NewResult(corner tech.Corner, n int) *Result {
	buf := make([]float64, 4*n)
	return &Result{
		Corner:    corner,
		Rise:      buf[:n:n],
		Fall:      buf[n : 2*n : 2*n],
		SinkSlew:  buf[2*n : 3*n : 3*n],
		StageSlew: buf[3*n:],
		Has:       make([]uint8, n),
	}
}

// Measured reports whether any sink's arrival carries presence bit bit.
func (r *Result) Measured(bit uint8) bool {
	for _, h := range r.Has {
		if h&bit != 0 {
			return true
		}
	}
	return false
}

// Extremes returns the earliest and latest measured rising arrivals, then
// the falling ones, from one pass over the slots (0, 0 for an edge none
// was measured on).
func (r *Result) Extremes() (rmin, rmax, fmin, fmax float64) {
	rfirst, ffirst := true, true
	for id, h := range r.Has {
		if h&HasRise != 0 {
			x := r.Rise[id]
			switch {
			case rfirst:
				rmin, rmax, rfirst = x, x, false
			case x < rmin:
				rmin = x
			case x > rmax:
				rmax = x
			}
		}
		if h&HasFall != 0 {
			x := r.Fall[id]
			switch {
			case ffirst:
				fmin, fmax, ffirst = x, x, false
			case x < fmin:
				fmin = x
			case x > fmax:
				fmax = x
			}
		}
	}
	return
}

// Skew returns the worse of the rising and falling skews (max−min arrival).
func (r *Result) Skew() float64 {
	return SkewOf(r.Extremes())
}

// SkewOf is Skew from the extremes Extremes returns.
func SkewOf(rmin, rmax, fmin, fmax float64) float64 {
	rs, fs := rmax-rmin, fmax-fmin
	if fs > rs {
		return fs
	}
	return rs
}

// Evaluator computes sink arrivals for a clock tree. The flow treats
// evaluators uniformly: Elmore seeds buffer insertion during construction,
// the spice engine provides the accurate numbers the optimization passes
// trust (the paper's CNE step), and the two-pole (D2M) model is a
// closed-form reference for comparing the two.
//
// EvaluateCorners evaluates several corners in one call and returns one
// result per corner, in input order, each identical to what Evaluate
// returns for that corner alone. Implementations share netlist extraction
// between the corners and (the incremental transient engine) schedule the
// independent per-corner simulations concurrently.
type Evaluator interface {
	Name() string
	Evaluate(tr *ctree.Tree, corner tech.Corner) (*Result, error)
	EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*Result, error)
}

// CornerEvaluator is an alias of Evaluator, kept because the end-to-end
// benchmark module (benchmark/trace.go) still type-asserts to it.
type CornerEvaluator = Evaluator
