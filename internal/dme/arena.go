package dme

import (
	"math"
	"sort"
	"sync"

	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// Construction: the merge tree is built in a flat merge-segment slice
// instead of per-node heap allocations, then materialized straight into a
// ctree.Arena through the bulk-construction API.

// mseg is a merge-tree vertex in flat form: children and the originating
// sink are indices, not pointers, so a whole build's merge tree lives in
// one reusable slice.
type mseg struct {
	loc            geom.Point
	left, right    int32 // mseg indices; -1 on leaves
	sink           int32 // index into the input sink slice; -1 on internals
	snakeL, snakeR float64
	cap, delay     float64
}

// BuildZSTArena constructs a zero-skew tree over the sinks, rooted at
// source, directly into a ctree.Arena with capacity reserved up front from
// the sink count. The trunk (source to first merge point) is a plain
// route; it delays all sinks equally and is later populated with buffers.
// Every edge uses wire type 0.
func BuildZSTArena(tk *tech.Tech, source geom.Point, sinks []Sink, opt Options) *ctree.Arena {
	opt.defaults()
	a := ctree.NewArena(tk, source, 0.1, ctree.HintsForSinks(len(sinks)))
	if len(sinks) == 0 {
		return a
	}
	w := tk.Wires[0]

	n := len(sinks)
	segs := make([]mseg, n, 2*n-1)
	for i := range sinks {
		segs[i] = mseg{loc: sinks[i].Loc, left: -1, right: -1, sink: int32(i), cap: sinks[i].Cap}
	}

	var top int32
	if opt.Topology == "nn" || (opt.Topology == "auto" && n <= nnThreshold) {
		segs, top = mergeNearestNeighborSegs(segs, w, opt)
	} else {
		segs, top = buildMMMSegs(segs, w, opt)
	}
	materialize(a, segs, sinks, top)
	return a
}

// materialize writes the merge tree into the arena top-down: each vertex,
// then its left and right subtrees, with every child edge carrying the
// snake its merge assigned.
func materialize(a *ctree.Arena, segs []mseg, sinks []Sink, top int32) {
	var attach func(parent, si int32)
	attach = func(parent, si int32) {
		sg := &segs[si]
		var n int32
		if sg.sink >= 0 {
			s := &sinks[sg.sink]
			n = a.AddSink(parent, sg.loc, s.Cap, s.Name)
		} else {
			n = a.AddChildL(parent, ctree.Internal, sg.loc)
		}
		if sg.left >= 0 {
			attach(n, sg.left)
			kids := a.Children(n)
			a.Snake[kids[len(kids)-1]] = sg.snakeL
		}
		if sg.right >= 0 {
			attach(n, sg.right)
			kids := a.Children(n)
			a.Snake[kids[len(kids)-1]] = sg.snakeR
		}
	}
	attach(a.Root(), top)
}

// mergeSegs merges segs[ai] and segs[bi] through mergeKernel and writes the
// result to segs[out].
func mergeSegs(segs []mseg, ai, bi, out int32, w tech.WireType, opt Options) {
	res := mergeKernel(
		subtree{loc: segs[ai].loc, cap: segs[ai].cap, delay: segs[ai].delay},
		subtree{loc: segs[bi].loc, cap: segs[bi].cap, delay: segs[bi].delay},
		w, opt)
	segs[out] = mseg{
		loc: res.loc, left: ai, right: bi, sink: -1,
		snakeL: res.snakeL, snakeR: res.snakeR,
		cap: res.cap, delay: res.delay,
	}
}

// mergeNearestNeighborSegs repeatedly merges the globally closest pair of
// cluster roots (Edahiro-style greedy clustering), appending merge results
// to the segment slice.
func mergeNearestNeighborSegs(segs []mseg, w tech.WireType, opt Options) ([]mseg, int32) {
	live := make([]int32, len(segs))
	for i := range live {
		live[i] = int32(i)
	}
	for len(live) > 1 {
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				if d := segs[live[i]].loc.Manhattan(segs[live[j]].loc); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		out := int32(len(segs))
		segs = append(segs, mseg{})
		mergeSegs(segs, live[bi], live[bj], out, w, opt)
		live[bi] = out
		live[bj] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return segs, live[0]
}

// buildMMMSegs recursively bisects the sink set at the median of its wider
// axis (method of means and medians), then merges the two halves' trees.
// It sorts one ordering slice in place instead of copying a fresh slice per
// recursion level.
//
// Internal segments are pre-assigned: the call over order[lo:hi) owns output
// range [out, out+(hi−lo−1)) with its own merge node last, the left half
// building into [out, out+(mid−lo−1)) and the right half into the rest.
// Because the ranges are disjoint by construction, independent subtrees can
// merge concurrently (bounded by Options.Parallelism) without changing a
// single bit of the result.
func buildMMMSegs(segs []mseg, w tech.WireType, opt Options) ([]mseg, int32) {
	n := len(segs)
	if n == 1 {
		return segs, 0
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	segs = segs[:2*n-1]
	par := opt.Parallelism
	if par < 1 {
		par = 1
	}
	return segs, mmmRange(segs, order, int32(n), w, opt, par)
}

// mmmParMin is the smallest half size worth a goroutine; below it the
// synchronization overhead exceeds the merge work.
const mmmParMin = 1024

// mmmRange builds the merge tree over order (a view of the ordering slice),
// writing internal segments into segs[out:out+len(order)-1] and returning
// the root's segment index.
func mmmRange(segs []mseg, order []int32, out int32, w tech.WireType, opt Options, par int) int32 {
	n := int32(len(order))
	if n == 1 {
		return order[0]
	}
	minX, maxX := segs[order[0]].loc.X, segs[order[0]].loc.X
	minY, maxY := segs[order[0]].loc.Y, segs[order[0]].loc.Y
	for _, si := range order[1:] {
		p := segs[si].loc
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	byX := maxX-minX >= maxY-minY
	sort.Slice(order, func(i, j int) bool {
		a, b := segs[order[i]].loc, segs[order[j]].loc
		if byX {
			if a.X != b.X {
				return a.X < b.X
			}
			return a.Y < b.Y
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	mid := n / 2
	var left, right int32
	if par > 1 && mid >= mmmParMin && n-mid >= mmmParMin {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			left = mmmRange(segs, order[:mid], out, w, opt, par/2)
		}()
		right = mmmRange(segs, order[mid:], out+mid-1, w, opt, par-par/2)
		wg.Wait()
	} else {
		left = mmmRange(segs, order[:mid], out, w, opt, 1)
		right = mmmRange(segs, order[mid:], out+mid-1, w, opt, 1)
	}
	root := out + n - 2
	mergeSegs(segs, left, right, root, w, opt)
	return root
}
