// Package route repairs obstacle violations in clock trees (paper Section
// IV-A). Wires may cross placement obstacles but buffers may not sit on
// them, so a wire crossing is only a problem when the load beyond it is too
// large for a single buffer placed before the obstacle (a slew risk). The
// legalizer applies, in order:
//
//  1. L-shape selection — for each crossing edge, the single-bend
//     configuration with the smaller obstacle overlap;
//  2. the slew-free capacitance test — crossings whose downstream load a
//     single strong buffer can drive are left alone;
//  3. maze rerouting — heavy point-to-point crossings are rerouted around
//     the obstacles;
//  4. contour detouring — subtrees enclosed by a compound obstacle are
//     rebuilt along the obstacle's contour ring, cutting the ring arc
//     furthest (along the contour) from the source so the network stays a
//     tree while the longest detoured source-to-sink path is minimized
//     (paper Fig. 2).
package route

import (
	"fmt"

	"contango/internal/geom"
)

// Options configures legalization.
type Options struct {
	// SafeCap is the slew-free capacitance (fF): the largest load a single
	// buffer may drive over an obstacle without slew risk.
	SafeCap float64
	// MazeStep is the maze-router grid pitch in µm; 0 derives it from the
	// die size.
	MazeStep float64
	// MaxPasses bounds the repair iterations (reroutes can graze other
	// obstacles); 0 means 3.
	MaxPasses int
	// Scope, when non-nil, restricts LegalizeArena's repairs to the given
	// slots (ECO mode passes the dirty subtrees of a delta application, so
	// an incremental run never re-touches the legalized remainder of the
	// tree). Nodes outside the scope keep their routes verbatim; the
	// remaining-crossing count still reflects the whole tree.
	Scope map[int32]bool
}

// inScope reports whether a slot may be repaired under the options' scope
// (every slot is, when no scope is set).
func (o Options) inScope(n int32) bool { return o.Scope == nil || o.Scope[n] }

// Report summarizes what the legalizer did.
type Report struct {
	LFlips   int // edges fixed by choosing the other L-shape
	Reroutes int // edges maze-rerouted around obstacles
	Detours  int // compound obstacles detoured along their contour
	Crossing int // remaining (slew-safe) crossings left in place
}

func (r Report) String() string {
	return fmt.Sprintf("l-flips=%d reroutes=%d detours=%d safe-crossings=%d",
		r.LFlips, r.Reroutes, r.Detours, r.Crossing)
}

func crossesAny(obs *geom.ObstacleSet, pl geom.Polyline) bool {
	for i := 1; i < len(pl); i++ {
		if obs.SegmentCrossesAny(pl[i-1], pl[i]) {
			return true
		}
	}
	return false
}

func overlap(obs *geom.ObstacleSet, pl geom.Polyline) float64 {
	var total float64
	for i := range obs.Obstacles {
		total += pl.OverlapWithRect(obs.Obstacles[i].Rect)
	}
	return total
}
