// Package slack implements the paper's slow-down slack (Section III):
// per-sink slacks derived from measured latencies (Definition 1) and edge
// slacks aggregated over downstream sinks (Lemma 1), which budget every
// top-down optimization pass.
//
// Slacks are computed separately for rising and falling transitions and for
// every supply corner; an edge's usable slack is the conservative minimum
// across all of them, exactly as the paper prescribes for the multicorner
// CLR objective.
package slack

import (
	"math"

	"contango/internal/analysis"
	"contango/internal/ctree"
)

// Slacks holds the slow-down slacks of a tree for one set of measurements.
type Slacks struct {
	// EdgeSlow is indexed by arena slot; the parent edge of slot n is at
	// n. A sink's entry is its own slack Tmax − Ts (Definition 1); any
	// other edge's is the least over the sinks below it (Definition 2 via
	// Lemma 1). Both are minimized over transitions and corners. Slots the
	// tree does not reach read 0.
	EdgeSlow []float64
	// scale is the largest finite EdgeSlow, Gradient's green end.
	scale float64
}

// Compute derives the slacks of the tree a from one or more evaluation
// results (one per corner). Each result contributes rising and falling latencies; the
// conservative minimum over all of them is kept per sink and per edge. A
// result without any rising (falling) arrival contributes no rising
// (falling) latencies, and a sink without an arrival reads latency 0.
func Compute(a *ctree.Arena, results []*analysis.Result) *Slacks {
	s := &Slacks{EdgeSlow: make([]float64, a.Len())}
	sinks := a.Sinks()
	for _, sk := range sinks {
		s.EdgeSlow[sk] = math.Inf(1)
	}
	at := func(lat []float64, sk int32) float64 {
		if int(sk) < len(lat) {
			return lat[sk]
		}
		return 0
	}
	for _, r := range results {
		for _, view := range [2]struct {
			lat []float64
			bit uint8
		}{{r.Rise, analysis.HasRise}, {r.Fall, analysis.HasFall}} {
			if !r.Measured(view.bit) {
				continue
			}
			tmax := math.Inf(-1)
			for _, sk := range sinks {
				tmax = math.Max(tmax, at(view.lat, sk))
			}
			for _, sk := range sinks {
				s.EdgeSlow[sk] = math.Min(s.EdgeSlow[sk], tmax-at(view.lat, sk))
			}
		}
	}
	// Lemma 1: edge slack = min over downstream sinks, computable in O(n)
	// bottom-up.
	a.PostOrder(func(n int32) {
		if a.Kind[n] == ctree.Sink {
			return
		}
		slow := math.Inf(1)
		for _, c := range a.Children(n) {
			slow = math.Min(slow, s.EdgeSlow[c])
		}
		s.EdgeSlow[n] = slow
	})
	for _, v := range s.EdgeSlow {
		if !math.IsInf(v, 1) && v > s.scale {
			s.scale = v
		}
	}
	return s
}

// Gradient returns a 0..1 visualization weight for the edge keyed by slot id:
// 0 = no slow-down slack (critical, drawn red), 1 = the largest slack in the
// tree (drawn green). Used to reproduce the paper's Figure 3 coloring.
func (s *Slacks) Gradient(id int) float64 {
	if s.scale == 0 {
		return 0
	}
	if id < 0 || id >= len(s.EdgeSlow) {
		return 0
	}
	v := s.EdgeSlow[id]
	if math.IsInf(v, 1) {
		return 1
	}
	return math.Max(0, math.Min(1, v/s.scale))
}
