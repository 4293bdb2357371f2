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
// RebufferSinkArena, the ECO repair of one re-attached sink's stage, runs
// a van Ginneken-style dynamic program over that sink's own edge: option
// lists (downstream capacitance, worst downstream delay) propagate from
// the sink toward the parent, buffers may be placed at evenly spaced legal
// candidate sites, and dominated options are pruned, after the fast
// variant of [Shi & Li 2005] the paper adopts.
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
