package route

import (
	"math"
	"sort"

	"contango/internal/ctree"
	"contango/internal/geom"
)

// The maze grid pitch is the larger die side over mazePitchDiv, and the
// maze-reroute pass runs at most maxRepairPasses times.
const (
	mazePitchDiv    = 256
	maxRepairPasses = 3
)

// LegalizeArena repairs all obstacle violations in the arena. It mutates the
// arena and returns a report. The die rectangle bounds detour contours and
// the maze.
func LegalizeArena(a *ctree.Arena, obs *geom.ObstacleSet, die geom.Rect, opt Options) (*Report, error) {
	rep := &Report{}
	if obs == nil || obs.Len() == 0 {
		return rep, nil
	}
	maze := geom.NewMaze(die, math.Max(die.W(), die.H())/mazePitchDiv, obs)

	// Pass 1: cheap L-shape flips everywhere (in scope).
	a.PreOrder(func(n int32) {
		if a.Parent[n] < 0 || a.RouteLen[n] > 3 || !opt.inScope(n) {
			return // only direct connections have a free alternate L
		}
		route := a.Route(n)
		if !crossesAny(obs, route) {
			return
		}
		alt := geom.LShape(a.Loc[a.Parent[n]], a.Loc[n])
		best, bestOv := route, overlap(obs, route)
		for _, cand := range alt {
			if ov := overlap(obs, cand); ov < bestOv {
				best, bestOv = cand, ov
			}
		}
		if ov0 := overlap(obs, route); bestOv < ov0 {
			a.ReplaceRoute(n, best)
			rep.LFlips++
		}
	})

	// Pass 2: per-compound capture analysis and detouring.
	for ci := range obs.Compounds {
		if err := detourCompoundArena(a, obs, ci, die, maze, opt, rep); err != nil {
			return rep, err
		}
	}

	// Pass 3: heavy point-to-point crossings -> maze reroute. Repeat a few
	// times since a reroute can graze another obstacle.
	for pass := 0; pass < maxRepairPasses; pass++ {
		changed := false
		var bad []int32
		a.PreOrder(func(n int32) {
			if a.Parent[n] < 0 || !opt.inScope(n) || !crossesAny(obs, a.Route(n)) {
				return
			}
			if a.LoadCap(n) > opt.SafeCap {
				bad = append(bad, n)
			}
		})
		for _, n := range bad {
			pl, err := maze.Route(a.Loc[a.Parent[n]], a.Loc[n])
			if err != nil {
				continue // unroutable: leave the crossing; flow will buffer before it
			}
			if crossesAny(obs, pl) {
				continue
			}
			a.ReplaceRoute(n, pl)
			rep.Reroutes++
			changed = true
		}
		if !changed {
			break
		}
	}

	// Count the crossings we deliberately left (slew-safe).
	a.PreOrder(func(n int32) {
		if a.Parent[n] >= 0 && crossesAny(obs, a.Route(n)) {
			rep.Crossing++
		}
	})
	return rep, a.Validate()
}

// CheckLegalArena reports slots whose edges still cross obstacles while
// carrying more downstream load than a single buffer can safely drive. An
// empty slice means the tree is buffering-legal.
func CheckLegalArena(a *ctree.Arena, obs *geom.ObstacleSet, safeCap float64) []int32 {
	var bad []int32
	if obs == nil {
		return nil
	}
	a.PreOrder(func(n int32) {
		if a.Parent[n] < 0 {
			return
		}
		if crossesAny(obs, a.Route(n)) && a.LoadCap(n) > safeCap {
			bad = append(bad, n)
		}
	})
	return bad
}

// detourCompoundArena implements the paper's Step 2/3 for one compound
// obstacle: find subtrees captured inside it, keep the ones a single buffer
// can drive, and rebuild the rest along the compound's contour ring.
func detourCompoundArena(a *ctree.Arena, obs *geom.ObstacleSet, ci int, die geom.Rect,
	maze *geom.Maze, opt Options, rep *Report) error {

	captured := func(n int32) bool { return obs.CompoundAt(a.Loc[n]) == ci }

	// Topmost captured nodes: captured with a non-captured parent.
	var tops []int32
	a.PreOrder(func(n int32) {
		if a.Parent[n] >= 0 && opt.inScope(n) && captured(n) && !captured(a.Parent[n]) {
			tops = append(tops, n)
		}
	})
	for _, top := range tops {
		// The whole enclosed subtree may be fine if one buffer placed just
		// before the obstacle can drive it (paper Step 2).
		if a.LoadCap(top) <= opt.SafeCap {
			continue
		}
		if err := detourSubtreeArena(a, obs, ci, top, die, maze); err != nil {
			return err
		}
		rep.Detours++
	}
	return nil
}

// aRingProj is an attachment on the contour ring.
type aRingProj struct {
	pt     geom.Point
	s      float64 // arc-length parameter along the ring
	node   int32   // the outside subtree root (or captured sink) to hang here
	isSink bool
}

// detourSubtreeArena rebuilds the captured subtree rooted at top along the
// compound's contour ring.
func detourSubtreeArena(a *ctree.Arena, obs *geom.ObstacleSet, ci int, top int32,
	die geom.Rect, maze *geom.Maze) error {

	captured := func(n int32) bool { return obs.CompoundAt(a.Loc[n]) == ci }
	parent := a.Parent[top]
	ring := geom.ClipRing(obs.Contour(ci), die)
	perim := ring.Length()

	// Collect exits (outside subtrees fed through the captured region) and
	// captured sinks.
	var exits []int32
	var inSinks []int32
	var walk func(n int32)
	walk = func(n int32) {
		if !captured(n) {
			exits = append(exits, n)
			return
		}
		if a.Kind[n] == ctree.Sink {
			inSinks = append(inSinks, n)
			return
		}
		for _, c := range a.Children(n) {
			walk(c)
		}
	}
	walk(top)

	// Entry: the ring point nearest the outside parent.
	entryPt, entryS := projectOntoRing(ring, a.Loc[parent])

	var projs []aRingProj
	for _, v := range exits {
		pt, s := projectOntoRing(ring, a.Loc[v])
		projs = append(projs, aRingProj{pt: pt, s: s, node: v})
	}
	for _, v := range inSinks {
		pt, s := projectOntoRing(ring, a.Loc[v])
		projs = append(projs, aRingProj{pt: pt, s: s, node: v, isSink: true})
	}
	if len(projs) == 0 {
		// Nothing hangs off the captured region; just delete it.
		a.DeleteSubtree(top)
		return nil
	}

	// Positions relative to the entry, in (0, perim].
	rel := func(s float64) float64 {
		d := math.Mod(s-entryS+perim, perim)
		if d == 0 {
			d = perim // coincident with entry: treat as a full loop away
		}
		return d
	}
	sort.Slice(projs, func(i, j int) bool { return rel(projs[i].s) < rel(projs[j].s) })

	// Choose the ring arc to remove: between consecutive attachments
	// (including the entry boundary gaps), minimizing the longest
	// source-to-attachment contour distance max(δ_k, perim − δ_{k+1}).
	// Cutting before the first attachment serves everyone counter-clockwise;
	// cutting after the last serves everyone clockwise.
	bestCut, bestCost := 0, math.Inf(1)
	m := len(projs)
	for k := 0; k <= m; k++ {
		var cost float64
		switch k {
		case 0:
			cost = perim - rel(projs[0].s)
		case m:
			cost = rel(projs[m-1].s)
		default:
			cost = math.Max(rel(projs[k-1].s), perim-rel(projs[k].s))
		}
		if cost < bestCost {
			bestCut, bestCost = k, cost
		}
	}

	// Detach outside subtrees, then discard the captured region.
	for _, v := range exits {
		a.Detach(v)
	}
	for _, v := range inSinks {
		a.Detach(v)
	}
	a.DeleteSubtree(top)

	// Entry node on the ring, fed from the outside parent (maze-routed so
	// the feed itself cannot cross the compound).
	entry := a.AddChildL(parent, ctree.Internal, entryPt)
	a.WidthIdx[entry] = int32(widthOfArena(a, exits, inSinks))
	if feed, err := maze.Route(a.Loc[parent], entryPt); err == nil && !crossesAny(obs, feed) {
		a.ReplaceRoute(entry, feed)
	}

	// Clockwise chain: attachments before the cut, in increasing δ.
	attach := func(prev int32, pr aRingProj, arc geom.Polyline) int32 {
		n := a.AddChildL(prev, ctree.Internal, pr.pt)
		a.WidthIdx[n] = a.WidthIdx[entry]
		a.ReplaceRoute(n, arc)
		sub := pr.node
		hop := geom.LShape(a.Loc[n], a.Loc[sub])[0]
		// Captured sinks legitimately receive wire over the obstacle; for
		// outside subtrees prefer a hop that stays clear.
		if !pr.isSink && crossesAny(obs, hop) {
			if alt := geom.LShape(a.Loc[n], a.Loc[sub])[1]; !crossesAny(obs, alt) {
				hop = alt
			} else if mz, err := maze.Route(a.Loc[n], a.Loc[sub]); err == nil {
				hop = mz
			}
		}
		a.Attach(sub, n, hop)
		return n
	}
	prev, prevS := entry, entryS
	for k := 0; k < bestCut; k++ {
		arc := ringArc(ring, prevS, projs[k].s)
		prev = attach(prev, projs[k], arc)
		prevS = projs[k].s
	}
	// Counter-clockwise chain: attachments after the cut, in decreasing δ.
	prev, prevS = entry, entryS
	for k := m - 1; k >= bestCut; k-- {
		arc := ringArc(ring, projs[k].s, prevS).Reverse()
		prev = attach(prev, projs[k], arc)
		prevS = projs[k].s
	}
	return nil
}

// widthOfArena picks the wire index of the first re-attached subtree so the
// detour does not bottleneck it; defaults to 0.
func widthOfArena(a *ctree.Arena, exits, sinks []int32) int {
	for _, n := range exits {
		return int(a.WidthIdx[n])
	}
	for _, n := range sinks {
		return int(a.WidthIdx[n])
	}
	return 0
}
