package opt

import (
	"math"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/slack"
	"contango/internal/tech"
)

// EstimateTpair measures the delay of one repeater pair (two cascaded
// inverters, polarity preserving) inserted mid-tree: one accurate
// evaluation against the cached baseline, probes reverted. Pair delay is
// the quantum for the pair-insertion equalizer.
func EstimateTpair(cx *Context) (float64, error) {
	base, _, err := cx.Baseline()
	if err != nil {
		return 0, err
	}
	a := cx.arena()
	probes := pickProbes(a, cx.wideIdx(), 1)
	if len(probes) == 0 {
		return 0, nil
	}
	p := probes[0]
	comp, ok := nearestComposite(a, p)
	if !ok {
		return 0, nil
	}
	mid := a.Route(p).Length() / 2
	b1 := a.InsertOnEdge(p, mid, ctree.Buffer)
	a.SetBuf(b1, comp)
	b2 := a.InsertOnEdge(p, 10, ctree.Buffer)
	a.SetBuf(b2, comp)
	cx.invalidate()
	after, _, err := cx.CNE()
	if err != nil {
		return 0, err
	}
	worst, _ := probeDelta(a, base, after, p)
	a.RemoveDegree2(b2)
	a.RemoveDegree2(b1)
	cx.reverted()
	cx.invalidate()
	return worst, nil
}

// nearestComposite returns the composite of the closest buffer ancestor of
// slot n (the natural strength for repeaters in that region), or the first
// buffer's composite in pre-order as a fallback; ok is false when the tree
// has no buffer.
func nearestComposite(a *ctree.Arena, n int32) (tech.Composite, bool) {
	for cur := n; cur >= 0; cur = a.Parent[cur] {
		if comp, ok := a.Buf(cur); ok {
			return comp, true
		}
	}
	var comp tech.Composite
	found := false
	a.PreOrder(func(i int32) {
		if !found && a.Kind[i] == ctree.Buffer {
			comp, found = a.Buf(i)
		}
	})
	return comp, found
}

// PairInsertion slows fast subtrees down by inserting polarity-preserving
// inverter pairs high in the tree, budgeted by slow-down slack. Unlike
// snaking, a pair consumes almost no wiring capacitance and *restores* slew
// (the repeaters regenerate the edge), so it remains effective when both
// the capacitance budget and the slew headroom are exhausted. This
// stage-count equalizer is this library's extension of the paper's buffer
// interleaving (Section IV-H), aimed at skew rather than slew; it is what
// compensates detour-induced stage imbalance.
func PairInsertion(cx *Context) error {
	tpair, err := EstimateTpair(cx)
	if err != nil {
		return err
	}
	if tpair <= 0.5 {
		cx.logf("pair: degenerate pair delay %.2f, skipping", tpair)
		return nil
	}
	cx.logf("pair: Tpair=%.2f ps", tpair)
	return cx.improveLoop("pair", MinSkew, func(res []*analysis.Result) bool {
		a := cx.arena()
		slk := slack.Compute(a, res)
		headroom := cx.capHeadroom()
		changed := 0
		topDown(a, func(n int32, used float64) float64 {
			if a.Route(n).Length() <= 60 {
				return used
			}
			k := int(math.Floor((slk.EdgeSlow[int(n)] - used) * 0.8 / tpair))
			if k > 2 {
				k = 2 // at most two pairs per edge per round
			}
			if k < 1 {
				return used
			}
			comp, ok := nearestComposite(a, n)
			if !ok {
				return used
			}
			pairCap := 2 * comp.CapCost()
			for i := 0; i < k && pairCap <= headroom; i++ {
				route := a.Route(n)
				d := route.Length() * 0.5
				if cx.Obs != nil {
					for d > 0 && cx.Obs.BlocksPoint(route.At(d)) {
						d -= 25
					}
					if d <= 10 {
						break
					}
				}
				b1 := a.InsertOnEdge(n, d, ctree.Buffer)
				a.SetBuf(b1, comp)
				b2 := a.InsertOnEdge(n, 5, ctree.Buffer)
				a.SetBuf(b2, comp)
				headroom -= pairCap
				used += tpair
				changed++
			}
			return used
		})
		cx.logf("pair: inserted %d pairs", changed)
		return changed > 0
	})
}
