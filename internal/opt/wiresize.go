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
	a := cx.arena()
	probes := pickProbes(a, cx.wideIdx(), 4)
	if len(probes) == 0 {
		return 0, nil
	}
	narrow := cx.narrowIdx()
	for _, p := range probes {
		a.WidthIdx[p] = int32(narrow)
	}
	cx.invalidate()
	after, _, err := cx.CNE()
	if err != nil {
		return 0, err
	}
	twsUnit := 0.0
	for _, p := range probes {
		worst, _ := probeDelta(a, base, after, p)
		if u := worst / a.EdgeLen(p); u > twsUnit {
			twsUnit = u
		}
	}
	// Revert probes and the CNE cache.
	wide := cx.wideIdx()
	for _, p := range probes {
		a.WidthIdx[p] = int32(wide)
	}
	cx.invalidate()
	return twsUnit, nil
}

// pickProbes selects up to k long, wide, subtree-disjoint edges from the
// middle of the tree (neither trunk nor sink edges).
func pickProbes(a *ctree.Arena, wide, k int) []int32 {
	var cands []int32
	a.PreOrder(func(n int32) {
		if p := a.Parent[n]; p < 0 || a.Parent[p] < 0 {
			return // root or trunk-top edges: affect all sinks
		}
		if a.Kind[n] == ctree.Sink || int(a.WidthIdx[n]) != wide {
			return
		}
		if a.EdgeLen(n) < 100 {
			return
		}
		cands = append(cands, n)
	})
	sort.Slice(cands, func(i, j int) bool { return a.EdgeLen(cands[i]) > a.EdgeLen(cands[j]) })
	var out []int32
	taken := map[int32]bool{}
	for _, c := range cands {
		if len(out) == k {
			break
		}
		conflict := false
		for cur := c; cur >= 0; cur = a.Parent[cur] {
			if taken[cur] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		// Mark the whole subtree as taken so probes stay independent.
		var mark func(int32)
		mark = func(n int32) {
			taken[n] = true
			for _, ch := range a.Children(n) {
				mark(ch)
			}
		}
		mark(c)
		out = append(out, c)
	}
	return out
}

// probeDelta returns the worst latency increase (over both launch edges)
// and the worst slew increase that the sinks below probe slot n see between
// the base and after evaluations, over every corner. Both are at least 0.
func probeDelta(a *ctree.Arena, base, after []*analysis.Result, n int32) (lat, slew float64) {
	var walk func(m int32)
	walk = func(m int32) {
		if a.Kind[m] == ctree.Sink {
			id := int(m)
			for vi := range base {
				b, r := base[vi], after[vi]
				for _, d := range [2]float64{r.Rise[id] - b.Rise[id], r.Fall[id] - b.Fall[id]} {
					if d > lat {
						lat = d
					}
				}
				if d := r.SinkSlew[id] - b.SinkSlew[id]; d > slew {
					slew = d
				}
			}
		}
		for _, c := range a.Children(m) {
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
		a := cx.arena()
		slk := slack.Compute(a, res)
		changed := 0
		topDown(a, func(n int32, used float64) float64 {
			if int(a.WidthIdx[n]) != wide {
				return used
			}
			est := twsUnit * a.EdgeLen(n)
			if budget := slk.EdgeSlow[int(n)] - used; budget > est && est > 0 {
				a.WidthIdx[n] = int32(narrow)
				used += est
				changed++
			}
			return used
		})
		cx.logf("twsz: downsized %d edges", changed)
		return changed > 0
	})
}
