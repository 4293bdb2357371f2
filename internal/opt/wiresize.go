package opt

import (
	"sort"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/slack"
)

// EstimateTws measures the ad hoc linear wiresizing model of Section IV-E:
// several independent mid-tree wire segments are downsized, one accurate
// evaluation observes the worst latency increase among their downstream
// sinks, and the per-µm impact parameter Tws is the conservative maximum.
// The probes are reverted before returning; exactly one extra CNE is spent.
func EstimateTws(cx *Context) (float64, error) {
	base, _, err := cx.Baseline()
	if err != nil {
		return 0, err
	}
	probes := pickProbes(cx.Tree, cx.wideIdx(), 4)
	if len(probes) == 0 {
		return 0, nil
	}
	narrow := cx.narrowIdx()
	for _, p := range probes {
		p.WidthIdx = narrow
	}
	cx.invalidate()
	after, _, err := cx.CNE()
	if err != nil {
		return 0, err
	}
	twsUnit := 0.0
	for _, p := range probes {
		worst, _ := probeDelta(base, after, p)
		if u := worst / p.EdgeLen(); u > twsUnit {
			twsUnit = u
		}
	}
	// Revert probes and the CNE cache.
	wide := cx.wideIdx()
	for _, p := range probes {
		p.WidthIdx = wide
	}
	cx.invalidate()
	return twsUnit, nil
}

// pickProbes selects up to k long, wide, subtree-disjoint edges from the
// middle of the tree (neither trunk nor sink edges).
func pickProbes(tr *ctree.Tree, wide, k int) []*ctree.Node {
	var cands []*ctree.Node
	tr.PreOrder(func(n *ctree.Node) {
		if n.Parent == nil || n.Parent.Parent == nil {
			return // root or trunk-top edges: affect all sinks
		}
		if n.Kind == ctree.Sink || n.WidthIdx != wide {
			return
		}
		if n.EdgeLen() < 100 {
			return
		}
		cands = append(cands, n)
	})
	sort.Slice(cands, func(i, j int) bool { return cands[i].EdgeLen() > cands[j].EdgeLen() })
	var out []*ctree.Node
	taken := map[int]bool{}
	for _, c := range cands {
		if len(out) == k {
			break
		}
		conflict := false
		for cur := c; cur != nil; cur = cur.Parent {
			if taken[cur.ID] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		// Mark the whole subtree as taken so probes stay independent.
		var mark func(*ctree.Node)
		mark = func(n *ctree.Node) {
			taken[n.ID] = true
			for _, ch := range n.Children {
				mark(ch)
			}
		}
		mark(c)
		out = append(out, c)
	}
	return out
}

// probeDelta returns the worst latency increase (over both launch edges)
// and the worst slew increase that the sinks below probe n see between the
// base and after evaluations, over every corner. Both are at least 0.
func probeDelta(base, after []*analysis.Result, n *ctree.Node) (lat, slew float64) {
	var walk func(m *ctree.Node)
	walk = func(m *ctree.Node) {
		if m.Kind == ctree.Sink {
			for vi := range base {
				b, a := base[vi], after[vi]
				for _, d := range [2]float64{a.Rise[m.ID] - b.Rise[m.ID], a.Fall[m.ID] - b.Fall[m.ID]} {
					if d > lat {
						lat = d
					}
				}
				if d := a.SinkSlew[m.ID] - b.SinkSlew[m.ID]; d > slew {
					slew = d
				}
			}
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return lat, slew
}

// TopDownWiresizing is Algorithm 1 of the paper: repeatedly compute wire
// slow-down slacks, walk the tree top-down with a running consumed-slack
// budget, downsize every wide edge whose remaining slack exceeds the
// estimated impact Tws·length, then accept or revert based on an accurate
// evaluation. Downsizing also *reduces* capacitance, so this pass frees
// power for later snaking.
func TopDownWiresizing(cx *Context) error {
	twsUnit, err := EstimateTws(cx)
	if err != nil {
		return err
	}
	if twsUnit <= 0 {
		cx.logf("twsz: no usable probes, skipping")
		return nil
	}
	cx.logf("twsz: Tws=%.4f ps/µm", twsUnit)
	wide, narrow := cx.wideIdx(), cx.narrowIdx()
	return cx.improveLoop("twsz", MinSkew, func(res []*analysis.Result) bool {
		slk := slack.Compute(cx.Tree, res)
		changed := 0
		topDown(cx.Tree, func(n *ctree.Node, used float64) float64 {
			if n.WidthIdx != wide {
				return used
			}
			est := twsUnit * n.EdgeLen()
			if budget := slk.EdgeSlow[n.ID] - used; budget > est && est > 0 {
				n.WidthIdx = narrow
				used += est
				changed++
			}
			return used
		})
		cx.logf("twsz: downsized %d edges", changed)
		return changed > 0
	})
}
