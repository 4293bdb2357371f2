package analysis

import (
	"math"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// ln9 converts a time constant into a 10-90% transition time for a
// single-pole response: t90 - t10 = τ·ln(0.9/0.1).
const ln9 = 2.1972245773362196

// Elmore is the first-moment delay evaluator. It is exact for the total
// charge-transfer delay of RC trees but, as the paper stresses, ignores
// resistive shielding and slew effects; Contango uses it only to build the
// initial tree and to seed buffer insertion.
type Elmore struct {
	// MaxSeg overrides the RC subdivision length (µm); 0 means default.
	MaxSeg float64
}

// Name implements Evaluator.
func (e *Elmore) Name() string { return "elmore" }

// Evaluate implements Evaluator as a one-corner EvaluateCorners call.
func (e *Elmore) Evaluate(tr *ctree.Tree, corner tech.Corner) (*Result, error) {
	rs, err := e.EvaluateCorners(tr, []tech.Corner{corner})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// TwoPole is the D2M (delay with two moments) evaluator: a closed-form
// reduced-order model in the same family as the Arnoldi approximations the
// paper mentions as SPICE substitutes. Delay = ln2 · m1²/√m2, which is
// substantially more accurate than Elmore on far sinks of resistive nets.
type TwoPole struct {
	MaxSeg float64
}

// Name implements Evaluator.
func (e *TwoPole) Name() string { return "twopole" }

// Evaluate implements Evaluator as a one-corner EvaluateCorners call.
func (e *TwoPole) Evaluate(tr *ctree.Tree, corner tech.Corner) (*Result, error) {
	rs, err := e.EvaluateCorners(tr, []tech.Corner{corner})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// d2m converts first and second moments into a 50% delay estimate.
func d2m(m1, m2 float64) float64 {
	if m2 <= 0 {
		return m1 * math.Ln2
	}
	return math.Ln2 * m1 * m1 / math.Sqrt(m2)
}

// slewFromMoments estimates the 10-90% transition time from the first two
// moments via the response's standard deviation (PERI-style):
// σ = √(2·m2 − m1²), slew ≈ ln9·σ, falling back to the single-pole formula
// when the variance degenerates.
func slewFromMoments(m1, m2 float64) float64 {
	v := 2*m2 - m1*m1
	if v <= 0 {
		return ln9 * m1
	}
	return ln9 * math.Sqrt(v)
}
