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
	// EdgeSlow is keyed by arena slot; the parent edge of slot n is keyed
	// by n. A sink's entry is its own slack Tmax − Ts
	// (Definition 1); any other edge's is the least over the sinks below it
	// (Definition 2 via Lemma 1). Both are minimized over transitions and
	// corners.
	EdgeSlow map[int]float64
	// scale is the largest finite EdgeSlow, Gradient's green end.
	scale float64
}

// Compute derives the slacks of the tree a from one or more evaluation
// results (one per corner). Each result contributes rising and falling latencies; the
// conservative minimum over all of them is kept per sink and per edge.
func Compute(a *ctree.Arena, results []*analysis.Result) *Slacks {
	s := &Slacks{EdgeSlow: map[int]float64{}}
	var views []map[int]float64
	for _, r := range results {
		if len(r.Rise) > 0 {
			views = append(views, r.Rise)
		}
		if len(r.Fall) > 0 {
			views = append(views, r.Fall)
		}
	}
	sinks := a.Sinks()
	for _, sk := range sinks {
		s.EdgeSlow[int(sk)] = math.Inf(1)
	}
	for _, lat := range views {
		tmax := math.Inf(-1)
		for _, sk := range sinks {
			tmax = math.Max(tmax, lat[int(sk)])
		}
		for _, sk := range sinks {
			s.EdgeSlow[int(sk)] = math.Min(s.EdgeSlow[int(sk)], tmax-lat[int(sk)])
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
			slow = math.Min(slow, s.EdgeSlow[int(c)])
		}
		s.EdgeSlow[int(n)] = slow
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
	v := s.EdgeSlow[id]
	if math.IsInf(v, 1) {
		return 1
	}
	return math.Max(0, math.Min(1, v/s.scale))
}
