package eco

import (
	"fmt"
	"math"
	"time"

	"contango/internal/buffering"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/tech"
)

// Spec is the resolved input of one ECO run, carried on core.Options: the
// content key of the base result the run restores, the delta to replay,
// and the restored base itself. Only BaseKey and the delta participate in
// cache keys (via Fingerprint); the tree and timing ride along so the eco
// pass does not need store access.
type Spec struct {
	// BaseKey is the result-cache key of the base synthesis run.
	BaseKey string
	// Delta is the engineering change order to replay.
	Delta *Delta
	// Base is the base run's synthesized clock tree (from the decoded
	// result envelope). The eco pass clones it; the original is never
	// mutated, so cached results stay intact.
	Base *ctree.Tree
	// Composite is the buffer composite the base run settled on; repair
	// buffering and polarity correction reuse its strength.
	Composite tech.Composite
	// BaseElapsed is the base run's wall time, for speedup accounting
	// only — it never shapes results or keys.
	BaseElapsed time.Duration
}

// Fingerprint renders the key material of the spec: the base key and the
// delta's content address. It is what the service appends to the options
// fingerprint, so equal (base, delta) pairs share one cache slot.
func (sp *Spec) Fingerprint() string {
	return sp.BaseKey + "," + sp.Delta.Fingerprint()
}

// Config carries the tree-repair knobs of Apply.
type Config struct {
	// Composite is the buffer strength for decoupling and polarity repair
	// (normally the base run's composite choice).
	Composite tech.Composite
	// Obs is the benchmark's obstacle set (nil = unobstructed).
	Obs *geom.ObstacleSet
	// Die bounds maze reroutes during scoped legalization.
	Die geom.Rect
	// SafeCap caps a buffered stage's load; 0 derives it from Composite
	// via buffering.SafeLoad.
	SafeCap float64
}

// Report summarizes one delta application.
type Report struct {
	Moved   int `json:"moved"`
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// Pruned counts internal/buffer nodes deleted because a removal left
	// them childless; Spliced counts degree-2 internals removed.
	Pruned  int `json:"pruned"`
	Spliced int `json:"spliced"`
	// AddedBuffers and AddedInverters count repair insertions.
	AddedBuffers   int `json:"added_buffers"`
	AddedInverters int `json:"added_inverters"`
	// DirtySlots is the size of the mutation journal after the delta —
	// the locality footprint the scoped repair ran over.
	DirtySlots   int          `json:"dirty_slots"`
	Legalization route.Report `json:"legalization"`
}

func (r *Report) String() string {
	return fmt.Sprintf("eco: %dmv %dadd %drm, %d pruned, %d spliced, +%d buffers, +%d inverters, %d dirty slots",
		r.Moved, r.Added, r.Removed, r.Pruned, r.Spliced, r.AddedBuffers, r.AddedInverters, r.DirtySlots)
}

// Apply replays a delta against the arena of a synthesized tree using
// locality-scoped repair: removed sinks are pruned (with their dead
// ancestor chains), moved and added sinks re-attach at the nearest live
// edge via InsertOnEdge, polarity is re-corrected (only wrong-parity
// sinks — i.e. the re-attached ones — are touched), overloaded stages are
// decoupled with single-edge van Ginneken re-buffering, and legalization
// runs restricted to the dirty subtrees. Everything flows through the
// journaling mutators, so the arena's dirty bitmap marks exactly the
// touched region; Report.DirtySlots is its size. The same arena and delta
// always produce the same tree.
func Apply(a *ctree.Arena, d *Delta, cfg Config) (*Report, error) {
	rep := &Report{}
	d.canon()
	safeCap := cfg.SafeCap
	if safeCap == 0 && cfg.Composite.N > 0 {
		safeCap = buffering.SafeLoad(a.Tech, cfg.Composite)
	}

	// Resolve only the names the delta touches (the tree has hundreds of
	// thousands of sinks, the delta hundreds — a full name map would cost
	// more than the rest of the apply). A name mentioned twice in the tree
	// cannot be edited by name and is rejected; names the delta never
	// references are free to collide.
	need := make(map[string]int32, len(d.Removed)+len(d.Moved))
	for _, name := range d.Removed {
		need[name] = -1
	}
	for _, m := range d.Moved {
		need[m.Name] = -1
	}
	addNames := make(map[string]bool, len(d.Added))
	for _, ad := range d.Added {
		addNames[ad.Name] = true
	}
	sinkSlot := make(map[string]int32, len(need)+len(addNames))
	for i := 0; i < a.Len(); i++ {
		if !a.Alive.Test(i) || a.Kind[i] != ctree.Sink || a.Name[i] == "" {
			continue
		}
		name := a.Name[i]
		if addNames[name] {
			return nil, fmt.Errorf("eco: add: sink %q already exists in the base tree", name)
		}
		if _, wanted := need[name]; !wanted {
			continue
		}
		if _, dup := sinkSlot[name]; dup {
			return nil, fmt.Errorf("eco: tree has duplicate sink name %q", name)
		}
		sinkSlot[name] = int32(i)
	}
	lookup := func(directive, name string) (int32, error) {
		slot, ok := sinkSlot[name]
		if !ok {
			return 0, fmt.Errorf("eco: %s: no sink %q in the base tree", directive, name)
		}
		return slot, nil
	}

	// Phase 1: structural removal. Removed sinks go entirely; moved sinks
	// detach (and relocate) now so their old edges never serve as
	// attachment candidates. Dead ancestor chains are pruned and spliced
	// behind both.
	for _, name := range d.Removed {
		slot, err := lookup("remove", name)
		if err != nil {
			return nil, err
		}
		p := a.Parent[slot]
		a.DeleteSubtree(slot)
		rep.Removed++
		cleanupChain(a, p, rep)
	}
	for _, m := range d.Moved {
		slot, err := lookup("move", m.Name)
		if err != nil {
			return nil, err
		}
		p := a.Parent[slot]
		a.Detach(slot)
		a.Loc[slot] = m.Loc
		cleanupChain(a, p, rep)
	}

	// Phase 2: re-attachment at the nearest live edge. The index is built
	// once over the post-removal tree and extended with every edge the
	// attachments create, so clustered edits can share new taps.
	idx := newEdgeIndex(a, cfg.Die)
	attached := make([]int32, 0, len(d.Moved)+len(d.Added))
	for _, m := range d.Moved {
		slot := sinkSlot[m.Name]
		target := idx.attachTarget(a, m.Loc, cfg.Obs)
		a.Attach(slot, target, nil)
		idx.insert(a, slot)
		attached = append(attached, slot)
		rep.Moved++
	}
	for _, ad := range d.Added {
		if _, dup := sinkSlot[ad.Name]; dup {
			return nil, fmt.Errorf("eco: add: sink %q already exists in the base tree", ad.Name)
		}
		target := idx.attachTarget(a, ad.Loc, cfg.Obs)
		slot := a.AddSink(target, ad.Loc, ad.Cap, ad.Name)
		sinkSlot[ad.Name] = slot
		idx.insert(a, slot)
		attached = append(attached, slot)
		rep.Added++
	}

	// Phase 3: repair. Polarity first — a re-attached sink may sit at odd
	// inversion parity; on a polarity-correct base only the attached sinks
	// can be wrong, so each gets the scoped per-sink fix instead of a
	// whole-tree parity scan. Then stage-load decoupling per attachment,
	// then legalization scoped to the dirty subtrees.
	if len(attached) > 0 && cfg.Composite.N > 0 {
		polComp := cfg.Composite
		if half := polComp.N / 2; half >= 1 {
			polComp.N = half
		}
		for _, slot := range attached {
			rep.AddedInverters += buffering.CorrectSinkPolarityArena(a, slot, polComp, cfg.Obs)
		}
		for _, slot := range attached {
			rep.AddedBuffers += buffering.RebufferSinkArena(a, slot, cfg.Composite,
				buffering.Options{Obs: cfg.Obs, MaxCap: safeCap})
		}
	}

	rep.DirtySlots = a.Dirty.Count()
	if cfg.Obs != nil && cfg.Obs.Len() > 0 && rep.DirtySlots > 0 {
		dirty := a.DirtyIDs()
		scope := make(map[int32]bool, 4*len(dirty))
		var mark func(int32)
		mark = func(n int32) {
			if scope[n] {
				return
			}
			scope[n] = true
			for _, c := range a.Children(n) {
				mark(c)
			}
		}
		for _, id := range dirty {
			if a.Alive.Test(id) {
				mark(int32(id))
			}
		}
		lrep, err := route.LegalizeArena(a, cfg.Obs, cfg.Die, route.Options{SafeCap: safeCap, Scope: scope})
		if lrep != nil {
			rep.Legalization = *lrep
		}
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// ReserveFor pre-grows the arena for the slots, route points and child
// references replaying d can create (edge splits, added sinks, repair
// inverters and buffers), so the SoA columns never reallocate mid-apply.
// It belongs with restoring the base tree: the result decoder and
// Arena.Clone size the columns exactly, and growing a quarter-million-slot
// column copies all of it — paid once here instead of scattered through
// the replay.
func ReserveFor(a *ctree.Arena, d *Delta) {
	grow := 6*d.Size() + 8
	a.Reserve(ctree.BuildHints{Nodes: a.Len() + grow,
		RoutePts: len(a.RoutePts) + 4*grow, Children: len(a.ChildIdx) + 2*grow})
}

// cleanupChain prunes the ancestor chain a detachment left behind: dead
// (childless, sinkless) internals and buffers are deleted bottom-up, and a
// surviving degree-2 internal is spliced out so the tree never accumulates
// topology garbage across ECO rounds. Buffers keep their place even at
// degree 2 — splicing one would flip downstream polarity.
func cleanupChain(a *ctree.Arena, p int32, rep *Report) {
	for p >= 0 && a.Alive.Test(int(p)) {
		if a.Kind[p] == ctree.Sink || a.Kind[p] == ctree.Source {
			return
		}
		kids := a.Children(p)
		if len(kids) == 0 {
			q := a.Parent[p]
			a.DeleteSubtree(p)
			rep.Pruned++
			p = q
			continue
		}
		if len(kids) == 1 && a.Kind[p] == ctree.Internal && a.Parent[p] >= 0 {
			a.RemoveDegree2(p)
			rep.Spliced++
		}
		return
	}
}

// edgeIndex is a uniform grid over the routes of live edges, for
// nearest-edge queries. The bulk of the tree is bucketed once into a flat
// CSR layout (offsets plus one backing array — building per-cell slices
// for a quarter-million edges would dominate the whole apply); edges
// created during the replay land in a sparse overflow layer. Entries are
// conservative: a slot is bucketed by its route's bounding box at
// insertion time, and splitting an edge only ever shrinks its route, so
// stale entries still cover the current geometry and are re-validated
// (aliveness, attachment) at query time.
type edgeIndex struct {
	die      geom.Rect
	g        int
	cw, ch   float64
	icw, ich float64   // inverse cell sizes: cellOf multiplies, never divides
	start    []int32   // CSR cell offsets into flat, len g*g+1
	flat     []int32   // edge slots of the initial build, grouped by cell
	extra    [][]int32 // post-build insertions (allocated on first use)
	stamp    []int32   // per-slot visited epoch, reused across queries
	epoch    int32
}

// cellRange is one edge's bucketed cell rectangle (g <= 256 keeps the
// coordinates in a byte).
type cellRange struct{ i0, j0, i1, j1 uint8 }

func newEdgeIndex(a *ctree.Arena, die geom.Rect) *edgeIndex {
	n := a.Len()
	g := int(math.Sqrt(float64(n)))
	if g < 4 {
		g = 4
	}
	if g > 256 {
		g = 256
	}
	idx := &edgeIndex{die: die, g: g, stamp: make([]int32, n)}
	idx.cw = die.W() / float64(g)
	idx.ch = die.H() / float64(g)
	if idx.cw <= 0 {
		idx.cw = 1
	}
	if idx.ch <= 0 {
		idx.ch = 1
	}
	idx.icw, idx.ich = 1/idx.cw, 1/idx.ch
	// Pass 1: each live edge's cell rectangle, and per-cell counts.
	ranges := make([]cellRange, n)
	counts := make([]int32, g*g+1)
	for i := 0; i < n; i++ {
		if !a.Alive.Test(i) || a.Parent[i] < 0 {
			ranges[i] = cellRange{i0: 1, i1: 0} // empty rect: not indexed
			continue
		}
		r := idx.rangeOf(a, int32(i))
		ranges[i] = r
		for j := int(r.j0); j <= int(r.j1); j++ {
			for ci := int(r.i0); ci <= int(r.i1); ci++ {
				counts[j*g+ci+1]++
			}
		}
	}
	// Pass 2: prefix sums, then fill the flat layout.
	for c := 1; c <= g*g; c++ {
		counts[c] += counts[c-1]
	}
	idx.start = counts
	idx.flat = make([]int32, counts[g*g])
	cursor := make([]int32, g*g)
	copy(cursor, counts[:g*g])
	for i := 0; i < n; i++ {
		r := ranges[i]
		if r.i1 < r.i0 {
			continue
		}
		for j := int(r.j0); j <= int(r.j1); j++ {
			for ci := int(r.i0); ci <= int(r.i1); ci++ {
				c := j*g + ci
				idx.flat[cursor[c]] = int32(i)
				cursor[c]++
			}
		}
	}
	return idx
}

// rangeOf computes the cell rectangle of edge n's route bounding box. An
// L-shaped route's corners never leave the endpoint bounding box, so only
// detoured routes (4+ points) scan their interior points.
func (idx *edgeIndex) rangeOf(a *ctree.Arena, n int32) cellRange {
	pl := a.Route(n)
	if len(pl) == 0 {
		pl = geom.Polyline{a.Loc[n]}
	}
	first, last := pl[0], pl[len(pl)-1]
	minX, maxX := math.Min(first.X, last.X), math.Max(first.X, last.X)
	minY, maxY := math.Min(first.Y, last.Y), math.Max(first.Y, last.Y)
	if len(pl) > 3 {
		for _, p := range pl[1 : len(pl)-1] {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	i0, j0 := idx.cellOf(geom.Pt(minX, minY))
	i1, j1 := idx.cellOf(geom.Pt(maxX, maxY))
	return cellRange{uint8(i0), uint8(j0), uint8(i1), uint8(j1)}
}

func (idx *edgeIndex) cellOf(p geom.Point) (int, int) {
	ci := int((p.X - idx.die.MinX) * idx.icw)
	cj := int((p.Y - idx.die.MinY) * idx.ich)
	return clampInt(ci, 0, idx.g-1), clampInt(cj, 0, idx.g-1)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// insert buckets edge n by its route's bounding box, into the overflow
// layer (only the initial build writes the CSR layout).
func (idx *edgeIndex) insert(a *ctree.Arena, n int32) {
	if idx.extra == nil {
		idx.extra = make([][]int32, idx.g*idx.g)
	}
	r := idx.rangeOf(a, n)
	for j := int(r.j0); j <= int(r.j1); j++ {
		for i := int(r.i0); i <= int(r.i1); i++ {
			idx.extra[j*idx.g+i] = append(idx.extra[j*idx.g+i], n)
		}
	}
}

// closestOnRoute returns the closest point of edge n's route to p, as
// (euclidean distance, arc offset from the parent end).
func closestOnRoute(pl geom.Polyline, p geom.Point) (float64, float64) {
	if len(pl) == 1 {
		return p.Euclid(pl[0]), 0
	}
	best, bestT := math.Inf(1), 0.0
	arc := 0.0
	for i := 0; i+1 < len(pl); i++ {
		a, b := pl[i], pl[i+1]
		ab := b.Sub(a)
		segLen2 := ab.X*ab.X + ab.Y*ab.Y
		u := 0.0
		if segLen2 > 0 {
			u = ((p.X-a.X)*ab.X + (p.Y-a.Y)*ab.Y) / segLen2
			if u < 0 {
				u = 0
			} else if u > 1 {
				u = 1
			}
		}
		q := a.Lerp(b, u)
		segLen := math.Sqrt(segLen2)
		if dd := p.Euclid(q); dd < best {
			best, bestT = dd, arc+u*segLen
		}
		arc += segLen
	}
	return best, bestT
}

// attachTarget returns the slot a sink at p should become a child of: the
// globally nearest live edge is found via expanding ring search, and its
// closest point becomes the tap — an existing endpoint when the projection
// lands there (avoiding degenerate zero-length edges), an InsertOnEdge
// split otherwise. Candidates whose tap point an obstacle blocks are
// passed over when an unblocked one exists. Fully deterministic: ties
// break on (distance, slot, offset).
func (idx *edgeIndex) attachTarget(a *ctree.Arena, p geom.Point, obs *geom.ObstacleSet) int32 {
	const eps = 1e-6
	type cand struct {
		slot int32
		d, t float64
	}
	better := func(x, y cand) bool {
		if x.d != y.d {
			return x.d < y.d
		}
		if x.slot != y.slot {
			return x.slot < y.slot
		}
		return x.t < y.t
	}
	best := cand{slot: -1, d: math.Inf(1)}
	bestClear := best // best candidate whose tap is not obstacle-blocked
	ci, cj := idx.cellOf(p)
	minCell := math.Min(idx.cw, idx.ch)
	// The visited stamp persists across queries (one epoch per query); the
	// arena may have grown since the index was built.
	if n := len(a.Kind); n > len(idx.stamp) {
		idx.stamp = append(idx.stamp, make([]int32, n-len(idx.stamp))...)
	}
	idx.epoch++
	visit := func(n int32) {
		if idx.stamp[n] == idx.epoch || !a.Alive.Test(int(n)) || a.Parent[n] < 0 {
			return
		}
		idx.stamp[n] = idx.epoch
		d, t := closestOnRoute(a.Route(n), p)
		c := cand{slot: n, d: d, t: t}
		if better(c, best) {
			best = c
		}
		if obs != nil {
			pl := a.Route(n)
			tap := a.Loc[n]
			if len(pl) > 1 {
				tap = pl.At(t)
			}
			if obs.BlocksPoint(tap) {
				return
			}
		}
		if better(c, bestClear) {
			bestClear = c
		}
	}
	for r := 0; r < idx.g; r++ {
		// Stop once no farther ring can improve the best unblocked tap
		// (when every tap so far is blocked, scan on — but never past the
		// die — hoping for a clear one).
		if best.slot >= 0 && bestClear.slot >= 0 && float64(r-1)*minCell > bestClear.d {
			break
		}
		for j := cj - r; j <= cj+r; j++ {
			if j < 0 || j >= idx.g {
				continue
			}
			for i := ci - r; i <= ci+r; i++ {
				if i < 0 || i >= idx.g {
					continue
				}
				if r > 0 && i > ci-r && i < ci+r && j > cj-r && j < cj+r {
					continue // interior cells were scanned at smaller r
				}
				c := j*idx.g + i
				for _, n := range idx.flat[idx.start[c]:idx.start[c+1]] {
					visit(n)
				}
				if idx.extra != nil {
					for _, n := range idx.extra[c] {
						visit(n)
					}
				}
			}
		}
	}
	if bestClear.slot >= 0 {
		best = bestClear
	}
	if best.slot < 0 {
		// Degenerate tree (root only): attach at the root.
		return a.Root()
	}
	n := best.slot
	geoLen := a.Route(n).Length()
	switch {
	case best.t <= eps:
		return a.Parent[n]
	case best.t >= geoLen-eps && a.Kind[n] != ctree.Sink && a.BufN[n] == 0:
		return n
	default:
		mid := a.InsertOnEdge(n, best.t, ctree.Internal)
		idx.insert(a, mid)
		return mid
	}
}
