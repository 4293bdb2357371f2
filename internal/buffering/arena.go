package buffering

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// BalancedInsertArena places buffers bottom-up by load threshold: walking
// from the sinks toward the root, a buffer is inserted whenever the
// unbuffered load a driver would have to carry reaches a fraction of the
// slew-safe capacitance. On an Elmore-balanced ZST this yields nearly
// identical buffer counts on every source-to-sink path — the property the
// paper relies on for low post-insertion skew ("source-to-sink paths contain
// practically the same numbers of buffers", Section IV-C) — and it is the
// flow's insertion mode.
//
// The threshold is 35% of the safe load. The deliberately deep margin
// leaves slew headroom that the snaking and sizing passes spend later; the
// slow corner and slew compounding through chains consume their share as
// well.
func BalancedInsertArena(a *ctree.Arena, comp tech.Composite, opt Options) (int, error) {
	maxCap := opt.MaxCap
	if maxCap == 0 {
		maxCap = SafeLoad(a.Tech, comp)
	}
	threshold := 0.35 * maxCap
	if threshold <= comp.Cin() {
		threshold = comp.Cin() * 2
	}
	added := 0

	type kid struct {
		n    int32
		load float64
	}
	// pending holds a copy of the child list of every node on the
	// recursion path, innermost last: processing a child edits its
	// parent's span, so each level walks its own copy.
	var pending []int32
	// process returns the unbuffered load at the TOP of n's parent edge
	// after placing any buffers this subtree needs, together with the slot
	// that now sits directly under the edge top (the last inserted buffer,
	// or n itself) so that callers can decouple the corridor at the merge.
	// The returned load never exceeds the threshold except at unrepairable
	// merges (inside obstacles).
	var process func(n int32) (float64, int32)
	process = func(n int32) (float64, int32) {
		load := 0.0
		switch a.Kind[n] {
		case ctree.Sink:
			load = a.SinkCap[n]
		default:
			base := len(pending)
			pending = append(pending, a.Children(n)...)
			end := len(pending)
			kids := make([]kid, 0, end-base)
			for i := base; i < end; i++ {
				kload, ktop := process(pending[i])
				kids = append(kids, kid{ktop, kload})
				load += kload
			}
			pending = pending[:base]
			// Repair 1: decouple heavy child edges with a buffer at the
			// merge point so the merge's own driver no longer sees them.
			// Heaviest first. The sort is not stable: the order of equal
			// loads is pdqsort's, and the construction goldens pin it.
			slices.SortFunc(kids, func(x, y kid) int { return cmp.Compare(y.load, x.load) })
			for i := range kids {
				if load <= threshold {
					break
				}
				k := kids[i]
				if k.load <= comp.Cin()*1.25 {
					break // decoupling replaces ~Cin with Cin: no benefit
				}
				pos := legalizePosArena(a, k.n, 0, opt)
				b := a.InsertOnEdge(k.n, pos, ctree.Buffer)
				a.SetBuf(b, comp)
				added++
				// If the site was nudged down the edge by an obstacle, the
				// wire above the new buffer still loads this merge.
				contrib := comp.Cin() + a.EdgeCap(b)
				kids[i] = kid{b, contrib}
				load += contrib - k.load
			}
			// Repair 2: sink clusters — many near-Cin children at one
			// point. Partition the children into slew-safe groups, each
			// driven by its own buffer at the merge location. Skipped when
			// the merge sits inside an obstacle (no legal site there); such
			// regions were bounded by the legalizer's slew-free test.
			mergeLegal := opt.Obs == nil || !opt.Obs.BlocksPoint(a.Loc[n])
			for mergeLegal && load > threshold && len(kids) > 1 {
				b := a.AddChildL(n, ctree.Buffer, a.Loc[n])
				a.SetBuf(b, comp)
				added++
				group := 0.0
				for i := 0; i < len(kids); {
					if group == 0 || group+kids[i].load <= threshold {
						ch := kids[i].n
						if ch == b {
							i++
							continue
						}
						r := append(geom.Polyline(nil), a.Route(ch)...)
						a.Detach(ch)
						a.Attach(ch, b, r)
						group += kids[i].load
						kids = append(kids[:i], kids[i+1:]...)
					} else {
						i++
					}
				}
				load = load - group + comp.Cin()
				kids = append(kids, kid{b, comp.Cin()})
				if group == 0 {
					break // nothing movable: give up gracefully
				}
			}
		}
		w := a.Tech.Wires[a.WidthIdx[n]]
		length := a.EdgeLen(n)
		// Walk the edge bottom-up; insert a buffer each time the running
		// load hits the threshold. Positions are electrical distances from
		// the child end.
		fromBottom := 0.0
		for {
			if load >= threshold {
				// Threshold already exceeded at the current point: buffer
				// right here.
			} else {
				room := (threshold - load) / w.CPerUm
				if fromBottom+room >= length {
					break // edge top reached without hitting the threshold
				}
				fromBottom += room
				load = threshold
			}
			d := length - fromBottom
			pos := legalizePosArena(a, n, d, opt)
			b := a.InsertOnEdge(n, pos, ctree.Buffer)
			a.SetBuf(b, comp)
			added++
			load = comp.Cin()
			length = a.EdgeLen(b)
			n = b
			fromBottom = 0
		}
		return load + (length-fromBottom)*w.CPerUm, n
	}

	// The clock source is a plain resistive driver with no regenerative
	// gain, so it gets its own (usually much smaller) slew-safe load bound.
	srcSafe := 0.45 * a.Tech.SlewLimit / (2.2 * a.SourceR)
	for _, c := range append([]int32(nil), a.Children(a.Root())...) {
		top, topNode := process(c)
		if (top > srcSafe || top > maxCap) && a.EdgeLen(topNode) >= 0 {
			pos := legalizePosArena(a, topNode, 0, opt)
			b := a.InsertOnEdge(topNode, pos, ctree.Buffer)
			a.SetBuf(b, comp)
			added++
		}
	}
	return added, nil
}

// legalizePosArena converts an electrical distance-from-parent on slot n's
// edge into a geometric route position and nudges it off obstacles
// (preferring upward, toward the parent).
func legalizePosArena(a *ctree.Arena, n int32, d float64, opt Options) float64 {
	route := a.Route(n)
	scale := 1.0
	if el := a.EdgeLen(n); el > 0 {
		scale = route.Length() / el
	}
	pos := d * scale
	if opt.Obs == nil {
		return pos
	}
	step := 25.0
	for try := pos; try >= 0; try -= step {
		if !opt.Obs.BlocksPoint(route.At(try)) {
			return try
		}
	}
	for try := pos + step; try <= route.Length(); try += step {
		if !opt.Obs.BlocksPoint(route.At(try)) {
			return try
		}
	}
	return pos
}

// --- van Ginneken DP over one edge ---

// candidateStep is the spacing of the DP's candidate buffer sites along an
// edge, in µm, measured from the child end.
const candidateStep = 200

// maxOptions caps the van Ginneken option list per point. It sets the fast
// variant's trade: a smaller cap is faster and slightly less optimal.
const maxOptions = 24

// bufList is a persistent list of chosen buffer sites on the DP's edge,
// each at electrical distance dist from the parent.
type bufList struct {
	dist float64
	next *bufList
}

// aOption is one Pareto point of the DP: downstream cap seen from here and
// the worst delay from here to any downstream sink, with the placements
// that realize it.
type aOption struct {
	cap   float64
	delay float64
	bufs  *bufList
}

// arenaInserter runs van Ginneken insertion for one composite buffer.
type arenaInserter struct {
	a    *ctree.Arena
	comp tech.Composite
	opt  Options

	maxCap float64
}

// sinkOptions computes the option list looking down sink n's parent edge
// from the parent end.
func (ins *arenaInserter) sinkOptions(n int32) []aOption {
	a := ins.a
	opts := []aOption{{cap: a.SinkCap[n], delay: 0}}
	// Walk up the edge, adding wire and offering buffer sites.
	w := a.Tech.Wires[a.WidthIdx[n]]
	length := a.EdgeLen(n)
	prev := length
	for _, pos := range candidates(length) { // descending positions
		opts = ins.addWire(opts, w, prev-pos)
		if !ins.blocked(n, pos, length) {
			opts = ins.offerBuffer(opts, pos)
		}
		prev = pos
	}
	opts = ins.addWire(opts, w, prev-0)
	return ins.prune(opts)
}

// candidates returns buffer positions (distance from parent) in descending
// order: spaced candidateStep apart measured from the child end, plus the
// edge top.
func candidates(length float64) []float64 {
	var out []float64
	for d := length - candidateStep; d > 0; d -= candidateStep {
		out = append(out, d)
	}
	out = append(out, 0)
	return out
}

// blocked reports whether the candidate site sits strictly inside an
// obstacle. The geometric position ignores snaking (snake length is assumed
// to be realized near the site's neighborhood).
func (ins *arenaInserter) blocked(n int32, dist, length float64) bool {
	if ins.opt.Obs == nil {
		return false
	}
	route := ins.a.Route(n)
	geo := route.Length()
	if geo <= 0 {
		return ins.opt.Obs.BlocksPoint(ins.a.Loc[n])
	}
	frac := dist / length
	return ins.opt.Obs.BlocksPoint(route.At(frac * geo))
}

// addWire extends every option upward through dl µm of wire.
func (ins *arenaInserter) addWire(opts []aOption, w tech.WireType, dl float64) []aOption {
	if dl <= 0 {
		return opts
	}
	r, c := w.RPerUm*dl, w.CPerUm*dl
	out := make([]aOption, len(opts))
	for i, o := range opts {
		out[i] = aOption{
			cap:   o.cap + c,
			delay: o.delay + r*(c/2+o.cap),
			bufs:  o.bufs,
		}
	}
	return ins.prune(out)
}

// offerBuffer adds the buffered alternative at distance dist from the
// parent: a buffer driving the best downstream option.
func (ins *arenaInserter) offerBuffer(opts []aOption, dist float64) []aOption {
	comp := ins.comp
	bestScore := math.Inf(1)
	bi := -1
	for i, o := range opts {
		if o.cap > ins.maxCap {
			continue // the buffer would violate slew driving this load
		}
		if score := comp.Rout()*(comp.Cout()+o.cap) + o.delay; score < bestScore {
			bestScore, bi = score, i
		}
	}
	if bi < 0 {
		return opts
	}
	buffered := aOption{
		cap:   comp.Cin(),
		delay: bestScore,
		bufs:  &bufList{dist: dist, next: opts[bi].bufs},
	}
	return ins.prune(append(opts, buffered))
}

// prune removes dominated options (another option with <= cap and <= delay),
// drops slew-hopeless options when safe ones exist, and caps the list.
func (ins *arenaInserter) prune(opts []aOption) []aOption {
	if len(opts) <= 1 {
		return opts
	}
	sort.Slice(opts, func(i, j int) bool {
		if opts[i].cap != opts[j].cap {
			return opts[i].cap < opts[j].cap
		}
		return opts[i].delay < opts[j].delay
	})
	out := opts[:0]
	bestDelay := math.Inf(1)
	for _, o := range opts {
		if o.delay < bestDelay-1e-15 {
			out = append(out, o)
			bestDelay = o.delay
		}
	}
	// Enforce the slew-safe cap when any option satisfies it.
	if out[0].cap <= ins.maxCap {
		cut := len(out)
		for i, o := range out {
			if o.cap > ins.maxCap {
				cut = i
				break
			}
		}
		out = out[:cut]
	} else {
		out = out[:1] // keep the least-bad option; flagged later by CNE
	}
	if len(out) > maxOptions {
		// Keep the extremes and evenly thin the middle.
		kept := make([]aOption, 0, maxOptions)
		stridef := float64(len(out)-1) / float64(maxOptions-1)
		for i := 0; i < maxOptions; i++ {
			kept = append(kept, out[int(float64(i)*stridef+0.5)])
		}
		out = kept
	}
	return append([]aOption(nil), out...)
}

// realize inserts buffers at the chosen distances on slot edge's parent
// edge. DP distances are electrical (they include snaking); they are
// scaled onto the geometric route before splitting, and applied top-down
// so later distances stay valid.
func (ins *arenaInserter) realize(edge int32, bufs *bufList) int {
	var dists []float64
	for p := bufs; p != nil; p = p.next {
		dists = append(dists, p.dist)
	}
	sort.Float64s(dists)
	scale := 1.0
	if el := ins.a.EdgeLen(edge); el > 0 {
		scale = ins.a.Route(edge).Length() / el
	}
	consumed := 0.0
	for _, d := range dists {
		rd := d * scale
		// After each split the lower half is still edge's.
		b := ins.a.InsertOnEdge(edge, rd-consumed, ctree.Buffer)
		ins.a.SetBuf(b, ins.comp)
		consumed = rd
	}
	return len(dists)
}

// CorrectPolarityArena fixes inverted sinks after inverter-based buffer
// insertion (paper Section IV-D, Proposition 2). It traverses the tree
// bottom-up and marks each node (i) whose downstream sinks all share one
// polarity while (ii) its parent's do not; an inverter is inserted just
// above every marked node whose sinks are inverted. The algorithm runs in
// O(n), corrects every inverted sink, and adds the minimum possible number
// of inverters subject to at most one added inverter on any root-to-sink
// path (the added set must be an antichain whose subtrees exactly cover the
// inverted sinks, and the maximal uniformly-inverted subtree roots are that
// minimum antichain).
//
// Inserted inverters use the given composite. Sites inside obstacles are
// slid up the edge to the nearest legal spot.
func CorrectPolarityArena(a *ctree.Arena, inv tech.Composite, obs *geom.ObstacleSet) int {
	n := a.Len()
	// parity[i]: #inverters on the root path, mod 2 (sinks want 0).
	parity := make([]int8, n)
	var walk func(i int32, p int8)
	walk = func(i int32, p int8) {
		if a.Kind[i] == ctree.Buffer {
			p ^= 1
		}
		parity[i] = p
		for _, c := range a.Children(i) {
			walk(c, p)
		}
	}
	walk(a.Root(), 0)

	// uniform[i]: 0 or 1 when all downstream sinks share that parity,
	// -1 when mixed, -2 when the subtree has no sinks.
	uniform := make([]int8, n)
	a.PostOrder(func(i int32) {
		if a.Kind[i] == ctree.Sink {
			uniform[i] = parity[i]
			return
		}
		u := int8(-2)
		for _, c := range a.Children(i) {
			cu := uniform[c]
			if cu == -2 {
				continue
			}
			if u == -2 {
				u = cu
			} else if u != cu {
				u = -1
			}
		}
		uniform[i] = u
	})

	// Marked slots: uniform subtrees whose parent is not uniform. The root
	// counts as marked when the whole tree is uniform.
	var marked []int32
	a.PreOrder(func(i int32) {
		if u := uniform[i]; u == 0 || u == 1 {
			if a.Parent[i] < 0 || uniform[a.Parent[i]] == -1 {
				marked = append(marked, i)
			}
		}
	})

	added := 0
	for _, site := range marked {
		if uniform[site] != 1 {
			continue // already correct polarity
		}
		if a.Parent[site] < 0 {
			// Whole tree inverted: one inverter at the top of the tree (at
			// the source output, ahead of every trunk edge).
			b := a.AddChildL(site, ctree.Buffer, a.Loc[site])
			a.SetBuf(b, inv)
			for _, c := range append([]int32(nil), a.Children(site)...) {
				if c == b {
					continue
				}
				route := append(geom.Polyline(nil), a.Route(c)...)
				a.Detach(c)
				a.Attach(c, b, route)
			}
			added++
			continue
		}
		insertInverterAboveArena(a, site, a.Route(site).Length(), inv, obs)
		added++
	}
	return added
}

// CorrectSinkPolarityArena repairs one sink's inversion parity in place:
// when the root path crosses an odd number of inverting stages, one
// inverter lands at the sink end of its edge — the site the antichain pass
// picks for an isolated wrong-parity sink. Returns the inverters added (0
// or 1). This is the scoped form ECO repair uses: on a polarity-correct
// base only the re-attached sinks can be wrong, so fixing them one by one
// replaces the whole-tree parity scan.
func CorrectSinkPolarityArena(a *ctree.Arena, sink int32, inv tech.Composite, obs *geom.ObstacleSet) int {
	p := 0
	for i := sink; i >= 0; i = a.Parent[i] {
		if a.Kind[i] == ctree.Buffer {
			p ^= 1
		}
	}
	if p == 0 {
		return 0
	}
	insertInverterAboveArena(a, sink, a.Route(sink).Length(), inv, obs)
	return 1
}

// insertInverterAboveArena splits slot n's parent edge at route distance d
// from the parent and places an inverter there, sliding up toward the
// parent when the spot is inside an obstacle.
func insertInverterAboveArena(a *ctree.Arena, n int32, d float64, inv tech.Composite, obs *geom.ObstacleSet) int32 {
	if obs != nil {
		step := 25.0
		route := a.Route(n)
		for d > 0 && obs.BlocksPoint(route.At(d)) {
			d -= step
			if d < 0 {
				d = 0
			}
		}
	}
	b := a.InsertOnEdge(n, d, ctree.Buffer)
	a.SetBuf(b, inv)
	return b
}

// InvertedSinksArena returns the sinks whose current polarity differs from
// the source (parity 1), in pre-order. Used for Table II and by tests.
func InvertedSinksArena(a *ctree.Arena) []int32 {
	var out []int32
	var walk func(i int32, p int)
	walk = func(i int32, p int) {
		if a.Kind[i] == ctree.Buffer {
			p ^= 1
		}
		if a.Kind[i] == ctree.Sink && p == 1 {
			out = append(out, i)
		}
		for _, c := range a.Children(i) {
			walk(c, p)
		}
	}
	walk(a.Root(), 0)
	return out
}

// InsertBestCompositeArena implements the paper's Section IV-C strategy:
// run fast buffer insertion with each composite configuration from the
// ladder and keep the solution with the strongest composite whose total
// capacitance stays within (1−gamma) of the capacitance limit — the gamma
// reserve (10% in the paper) is left for the downstream SPICE-driven
// optimizations.
//
// The arena is replaced by the winning solution. Candidates are judged
// strongest first, so the first admissible one wins; ties in strength
// never occur because the ladder is strictly ordered. Each candidate is
// built in a recycled work arena and judged straight from it: its netlist
// is extracted from the arena and the Elmore recurrence yields the worst
// latency and the slew-violation count. A candidate whose insertion fails or whose arena does not extract
// is skipped.
//
// With opt.Parallelism > 1 the ladder is judged in blocks of up to that
// many candidates at once (sweepWorkers bounds the block by tree size and
// memory). Each block is reduced in ladder order, so the winner, the
// fallback and the arena left behind are the serial sweep's.
func InsertBestCompositeArena(a *ctree.Arena, ladder []tech.Composite, capLimit, gamma float64, opt Options) (*SweepResult, error) {
	if len(ladder) == 0 {
		return nil, fmt.Errorf("buffering: empty composite ladder")
	}
	budget := (1 - gamma) * capLimit
	// The sweep judges candidates at the set's reference corner; going
	// through the role accessor (not index 0) keeps custom corner sets —
	// where the fast corner may sit anywhere — evaluating the right one.
	corner := a.Tech.Reference()
	par := sweepWorkers(a.Len(), opt.Parallelism, len(ladder))
	workers := make([]sweepWorker, par)
	for w := range workers {
		workers[w].arena = new(ctree.Arena)
	}

	var best *SweepResult
	var bestArena *ctree.Arena
	bestViol := int(^uint(0) >> 1)
	for top := len(ladder) - 1; top >= 0; top -= par {
		block := workers[:min(par, top+1)]
		judge := func(w int) {
			block[w].judge(a, ladder[top-w], opt, corner)
		}
		if len(block) == 1 {
			judge(0)
		} else {
			var wg sync.WaitGroup
			wg.Add(len(block))
			for w := range block {
				go func(w int) {
					defer wg.Done()
					judge(w)
				}(w)
			}
			wg.Wait()
		}
		for w := range block { // strongest first, as the serial sweep
			sw := &block[w]
			if !sw.ok {
				continue
			}
			cand := sw.res
			if cand.TotalCap <= budget && sw.viol == 0 {
				*a = *sw.arena
				return &cand, nil
			}
			// Remember the least-bad fallback in case nothing fits: fewest
			// slew violations first, then lowest worst latency. The
			// fallback keeps the worker's arena; the worker takes over the
			// previous fallback's as its next work arena.
			if best == nil || sw.viol < bestViol ||
				(sw.viol == bestViol && cand.WorstLat < best.WorstLat) {
				best, bestViol = &cand, sw.viol
				if bestArena == nil {
					bestArena = new(ctree.Arena)
				}
				bestArena, sw.arena = sw.arena, bestArena
			}
		}
	}
	if bestArena == nil {
		return nil, fmt.Errorf("buffering: no composite produced a solution")
	}
	*a = *bestArena
	return best, nil
}

// sweepWorkers is the composite sweep's block size for an arena of slots
// slots: the worker budget par, at most one worker per rung, serial below
// sweepParMin slots, and no more workers than sweepScratchMax holds.
func sweepWorkers(slots, par, rungs int) int {
	if par < 1 || slots < sweepParMin {
		return 1
	}
	return max(1, min(par, rungs, sweepScratchMax/(slots*sweepWorkerSlotBytes)))
}

// sweepParMin is the smallest arena (in slots) whose composite sweep runs
// in parallel blocks. Timed on 2 vCPUs (medians of 7, two workers against
// serial) with the 64-rung Large ladder, where 57-62 candidates are
// tried: 0.92-1.14x the serial time on TI samples of 60-200 slots,
// 0.75-0.87x from 300 slots up (0.63x at 10k). With the 8-rung Small
// ladder the winner is among the first 1-6 candidates and two workers
// gain nothing at any size (0.98-1.14x on the 185-660-slot contest
// designs). Service jobs of 30-100 sinks (60-200 slots) stay serial.
const sweepParMin = 256

// A sweep worker retains a work arena and a netlist of about
// sweepWorkerSlotBytes per input slot (280-291 B measured on 5k- and
// 50k-sink TI trees). sweepScratchMax caps the block's combined scratch,
// so peak memory does not grow with the worker budget: the 250k-sink case
// (500k slots) keeps two workers, and its wire-only synthesis through the
// buffer pass peaks at 1008-1084 MiB for GOMAXPROCS 2, 4 and 8 (medians
// of three on 2 vCPUs), where one worker per rung up to GOMAXPROCS peaked
// at 1451 MiB with 4 and 1959 MiB with 8. From about 290k sinks the sweep
// runs serial.
const (
	sweepWorkerSlotBytes = 288
	sweepScratchMax      = 320 << 20
)

// sweepWorker judges one sweep candidate at a time, recycling its work
// arena and netlist across candidates.
type sweepWorker struct {
	arena *ctree.Arena
	net   analysis.Net
	ok    bool // the candidate was built and extracted
	res   SweepResult
	viol  int
}

// judge builds the candidate for comp on a copy of base and judges it at
// corner.
func (sw *sweepWorker) judge(base *ctree.Arena, comp tech.Composite, opt Options, corner tech.Corner) {
	sw.ok = false
	sw.arena.CopyFrom(base)
	added, err := BalancedInsertArena(sw.arena, comp, opt)
	if err != nil {
		return
	}
	if err := sw.net.Extract(sw.arena, 0); err != nil {
		return
	}
	worst, viol := analysis.ElmoreWorst(&sw.net, corner)
	sw.res = SweepResult{Composite: comp, Added: added, TotalCap: sw.arena.TotalCap(), WorstLat: worst}
	sw.viol = viol
	sw.ok = true
}

// StageLoadArena returns the capacitive load the driver at n sees: its
// children's wire capacitance plus sink loads, with downstream buffered
// nodes contributing their input capacitance instead of their subtrees
// (the stage boundary of the composite-buffered tree). The ECO repair path
// uses it to decide whether a re-attached sink overloads its stage.
func StageLoadArena(a *ctree.Arena, n int32) float64 {
	load := 0.0
	var walk func(int32)
	walk = func(c int32) {
		load += a.EdgeCap(c)
		if a.BufN[c] > 0 {
			load += (tech.Composite{Type: a.BufType[c], N: int(a.BufN[c])}).Cin()
			return
		}
		if a.Kind[c] == ctree.Sink {
			load += a.SinkCap[c]
			return
		}
		for _, k := range a.Children(c) {
			walk(k)
		}
	}
	for _, c := range a.Children(n) {
		walk(c)
	}
	return load
}

// RebufferSinkArena restores the stage-load invariant around one
// re-attached sink: when the nearest buffered ancestor's stage load
// exceeds the composite's safe load, the van Ginneken DP runs over just
// the sink's own edge and realizes its best buffered option, decoupling
// the new load from the existing stage. The rest of the tree's buffering
// is never touched — this is the locality-scoped repair ECO applications
// rely on. Returns the number of buffers added (0 when the stage still
// has headroom or the sink is detached).
func RebufferSinkArena(a *ctree.Arena, sink int32, comp tech.Composite, opt Options) int {
	if a.Parent[sink] < 0 || a.Kind[sink] != ctree.Sink {
		return 0
	}
	ins := &arenaInserter{a: a, comp: comp, opt: opt}
	ins.maxCap = opt.MaxCap
	if ins.maxCap == 0 {
		ins.maxCap = SafeLoad(a.Tech, comp)
	}
	if ins.maxCap <= comp.Cin() {
		return 0
	}
	anc := a.Parent[sink]
	for a.Parent[anc] >= 0 && a.BufN[anc] == 0 {
		anc = a.Parent[anc]
	}
	if StageLoadArena(a, anc) <= ins.maxCap {
		return 0
	}
	// Options are scored with the decoupling composite itself as the
	// driver model; unbuffered options cannot reduce the overloaded stage,
	// so only buffered ones compete.
	opts := ins.sinkOptions(sink)
	best, bestScore := -1, math.Inf(1)
	for i, o := range opts {
		if o.bufs == nil {
			continue
		}
		score := comp.Rout()*(comp.Cout()+o.cap) + o.delay
		if o.cap > ins.maxCap {
			score += 1e12 // admissible only if nothing better exists
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0
	}
	return ins.realize(sink, opts[best].bufs)
}
