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
	probes := pickProbes(cx.Tree, cx.wideIdx(), 1)
	if len(probes) == 0 {
		return 0, nil
	}
	p := probes[0]
	comp := nearestComposite(cx.Tree, p)
	if comp == nil {
		return 0, nil
	}
	mid := p.Route.Length() / 2
	b1 := cx.Tree.InsertOnEdge(p, mid, ctree.Buffer)
	c1 := *comp
	b1.Buf = &c1
	b2 := cx.Tree.InsertOnEdge(p, 10, ctree.Buffer)
	c2 := *comp
	b2.Buf = &c2
	cx.invalidate()
	after, _, err := cx.CNE()
	if err != nil {
		return 0, err
	}
	worst, _ := probeDelta(base, after, p)
	cx.Tree.RemoveDegree2(b2)
	cx.Tree.RemoveDegree2(b1)
	cx.invalidate()
	return worst, nil
}

// nearestComposite returns the composite of the closest buffer ancestor of
// n (the natural strength for repeaters in that region), or any buffer's
// composite as a fallback.
func nearestComposite(tr *ctree.Tree, n *ctree.Node) *tech.Composite {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.Buf != nil {
			c := *cur.Buf
			return &c
		}
	}
	for _, b := range tr.Buffers() {
		c := *b.Buf
		return &c
	}
	return nil
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
		slk := slack.Compute(cx.Tree, res)
		headroom := cx.capHeadroom()
		changed := 0
		topDown(cx.Tree, func(n *ctree.Node, used float64) float64 {
			if n.Route.Length() <= 60 {
				return used
			}
			k := int(math.Floor((slk.EdgeSlow[n.ID] - used) * 0.8 / tpair))
			if k > 2 {
				k = 2 // at most two pairs per edge per round
			}
			if k < 1 {
				return used
			}
			comp := nearestComposite(cx.Tree, n)
			if comp == nil {
				return used
			}
			pairCap := 2 * comp.CapCost()
			for i := 0; i < k && pairCap <= headroom; i++ {
				d := n.Route.Length() * 0.5
				if cx.Obs != nil {
					for d > 0 && cx.Obs.BlocksPoint(n.Route.At(d)) {
						d -= 25
					}
					if d <= 10 {
						break
					}
				}
				b1 := cx.Tree.InsertOnEdge(n, d, ctree.Buffer)
				c1 := *comp
				b1.Buf = &c1
				b2 := cx.Tree.InsertOnEdge(n, 5, ctree.Buffer)
				c2 := *comp
				b2.Buf = &c2
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
