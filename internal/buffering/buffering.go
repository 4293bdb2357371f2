// Package buffering inserts clock buffers into obstacle-legal trees and
// corrects sink polarity.
//
// The flow's inserter is BalancedInsertArena: a bottom-up walk that places
// a buffer wherever the unbuffered load a driver would carry reaches a
// fixed fraction of the slew-safe capacitance, so source-to-sink paths get
// practically the same number of buffers (the paper's Section IV-C
// argument). InsertBestCompositeArena runs it for every composite of the
// sizing ladder and keeps the strongest one that fits the power budget.
//
// A van Ginneken-style bottom-up dynamic program (InsertArena) is kept
// beside it: candidate option lists (downstream capacitance, worst
// downstream delay) propagate from the sinks toward the root, buffers may
// be placed at evenly spaced legal candidate sites along edges, and
// dominated options are pruned, after the fast variant of [Shi & Li 2005]
// the paper adopts. The flow does not insert with it. Its machinery serves
// RebufferSinkArena, the ECO repair of one re-attached sink's stage, and
// the insertion ablation bench compares it with the balanced inserter.
//
// Because clock inverters flip polarity, insertion is followed by the
// paper's provably-minimal sink-polarity correction (Proposition 2).
//
// Every pass works on ctree.Arena slot indices.
package buffering

import (
	"contango/internal/geom"
	"contango/internal/tech"
)

// Options configures buffer insertion.
type Options struct {
	// Step is the candidate spacing along edges in µm (default 200).
	Step float64
	// Obs blocks candidate sites inside obstacles (may be nil).
	Obs *geom.ObstacleSet
	// MaxCap overrides the slew-safe load per driver (fF). 0 derives it
	// from the technology slew limit and the composite strength.
	MaxCap float64
	// Parallelism bounds the composite-sweep candidates judged at once
	// (InsertBestCompositeArena); values below 2 judge them one by one,
	// and small or very large trees use fewer workers. Results never
	// depend on it.
	Parallelism int
}

// maxOptions caps the van Ginneken option list per point. It sets the fast
// variant's trade: a smaller cap is faster and slightly less optimal.
const maxOptions = 24

func (o *Options) defaults() {
	if o.Step == 0 {
		o.Step = 200
	}
}

// SafeLoad returns the slew-safe load (fF) for a composite at the tree's
// slew limit: 2.2·R·C = limit with a 55% margin. The margin is deliberately
// generous: measured transient slews run well above the single-pole estimate
// because input slews degrade through deep chains, and the snaking passes
// need headroom to add capacitance without tripping the limit.
func SafeLoad(t *tech.Tech, comp tech.Composite) float64 {
	return 0.45 * t.SlewLimit / (2.2 * comp.Rout())
}

// SweepResult reports the outcome of the composite-configuration sweep.
type SweepResult struct {
	Composite tech.Composite
	Added     int
	TotalCap  float64
	WorstLat  float64 // Elmore worst source-to-sink latency, ps
}
