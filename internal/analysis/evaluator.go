package analysis

import (
	"contango/internal/ctree"
	"contango/internal/tech"
)

// Result holds per-sink arrival times and slews for one corner. Rise[id] is
// the arrival time (ps) at the sink in arena slot id of the edge
// launched by a rising source transition; Fall[id] is for a falling source
// transition. Evaluators that do not distinguish transitions (Elmore,
// two-pole) report identical values.
type Result struct {
	Corner   tech.Corner
	Rise     map[int]float64
	Fall     map[int]float64
	SinkSlew map[int]float64 // worst-case 10-90% slew at each sink, ps
	MaxSlew  float64         // worst slew anywhere in the network, ps
	SlewViol int             // number of nodes exceeding the tech slew limit
	// StageSlew maps each stage driver (buffer slot, or -1 for the
	// clock source) to the worst slew inside the stage it drives, ps. The
	// wire passes use it to budget how much capacitance each region can
	// still absorb.
	StageSlew map[int]float64
}

// MinMaxRise returns the earliest and latest rising arrivals.
func (r *Result) MinMaxRise() (min, max float64) {
	first := true
	for _, v := range r.Rise {
		if first {
			min, max = v, v
			first = false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return
}

// MinMaxFall returns the earliest and latest falling arrivals.
func (r *Result) MinMaxFall() (min, max float64) {
	first := true
	for _, v := range r.Fall {
		if first {
			min, max = v, v
			first = false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return
}

// Skew returns the worse of the rising and falling skews (max−min arrival).
func (r *Result) Skew() float64 {
	rmin, rmax := r.MinMaxRise()
	fmin, fmax := r.MinMaxFall()
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
