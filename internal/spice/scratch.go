package spice

import "sync"

// Scratch pools for the two allocation hot spots of the transient path:
// the per-stage integration state of simStage and the per-task slices of
// simulateCorners. Both are flat arrays sized by the stage/netlist at hand;
// pooling them removes the dominant share of the evaluator's allocations.
// simStage re-zeroes the accumulators it needs zeroed; the corner scratch
// is zeroed when it is returned to its pool.

// stageScratch is simStage's working state. The per-node factors g, gC, d
// and elim are shared by every column; V, b, acc and the crossing trackers
// hold one entry per RC node with a slot per column (V[i][c]), whatever
// the column count, so the four-column sweep addresses a node's columns
// with constant indices.
type stageScratch struct {
	g, gC, d, elim  []float64
	V, prev, b, acc [][4]float64 // prev: the state before a tracked step
	tr              [][4]tracker
	loads           []int // distinct load nodes, recorded every step
}

var stagePool = sync.Pool{New: func() any { return new(stageScratch) }}

// grow resizes the vectors to n RC nodes without zeroing; simStage fully
// overwrites the columns it uses (and explicitly clears the accumulators
// that need it).
func (ss *stageScratch) grow(n int) {
	ss.g = growF(ss.g, n)
	ss.gC = growF(ss.gC, n)
	ss.d = growF(ss.d, n)
	ss.elim = growF(ss.elim, n)
	if cap(ss.V) < n {
		ss.V = make([][4]float64, n)
		ss.prev = make([][4]float64, n)
		ss.b = make([][4]float64, n)
		ss.acc = make([][4]float64, n)
		ss.tr = make([][4]tracker, n)
	}
	ss.V, ss.prev, ss.b, ss.acc, ss.tr = ss.V[:n], ss.prev[:n], ss.b[:n], ss.acc[:n], ss.tr[:n]
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// cornerScratch holds simulateCorners' per-netlist working slices: the
// stage output directions and chain keys every column shares, and one
// edgeScratch per column (corner k's launch edge c is column 2k+c).
type cornerScratch struct {
	dirs  []bool   // rising-launch output direction per stage
	chain []uint64 // chain key per stage (chainKeys)
	edge  [4]edgeScratch
}

// edgeScratch is one (corner, launch edge) column's per-stage state. Every
// entry is zero while the scratch sits in the pool: stages skipped by the
// dirty-cone walk must read zero values, exactly as freshly made slices
// would give.
type edgeScratch struct {
	need  []bool // stage misses the cache and must be integrated
	ahead []int  // steps to take before suspending (stageIn.ahead)
	// chosen is the cache entry that served or recorded the stage; nil =
	// no input transition reached it.
	chosen []*stageEntry
}

var cornerPool = sync.Pool{New: func() any { return new(cornerScratch) }}

func getCornerScratch(n int) *cornerScratch {
	cs := cornerPool.Get().(*cornerScratch)
	if cap(cs.dirs) < n {
		cs.dirs = make([]bool, n)
		for c := range cs.edge {
			cs.edge[c] = edgeScratch{
				need:   make([]bool, n),
				ahead:  make([]int, n),
				chosen: make([]*stageEntry, n),
			}
		}
		return cs
	}
	cs.dirs = cs.dirs[:n]
	for c := range cs.edge {
		es := &cs.edge[c]
		es.need = es.need[:n]
		es.ahead = es.ahead[:n]
		es.chosen = es.chosen[:n]
	}
	return cs
}

// putCornerScratch zeroes what an evaluation wrote and pools the scratch.
// Clearing here rather than on checkout also keeps pooled entries from
// pinning transients the cache has already dropped.
func putCornerScratch(cs *cornerScratch) {
	for c := range cs.edge {
		es := &cs.edge[c]
		clear(es.need)
		clear(es.ahead)
		clear(es.chosen)
	}
	cornerPool.Put(cs)
}
