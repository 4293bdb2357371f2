package spice

import "sync"

// Scratch pools for the two allocation hot spots of the transient path:
// the per-stage integration state of simStage and the per-corner slices of
// simulateCorner. Both are flat arrays sized by the stage/netlist at hand;
// pooling them removes the dominant share of the evaluator's allocations.
// simStage re-zeroes the accumulators it needs zeroed; the corner scratch
// is zeroed when it is returned to its pool.

// stageScratch is simStage's working state. The per-node factors g, gC, d
// and elim are shared by both columns; V, b, acc and the crossing trackers
// hold one interleaved entry per (RC node, column).
type stageScratch struct {
	g, gC, d, elim []float64
	V, b, acc      []float64
	lo, mid, hi    []crossing
	loads          []int          // distinct load nodes, recorded every step
	waves          [2][]*Waveform // per column, aligned with loads
}

var stagePool = sync.Pool{New: func() any { return new(stageScratch) }}

// grow resizes the vectors to n RC nodes and w columns without zeroing;
// simStage fully overwrites them (and explicitly clears the accumulators
// that need it).
func (ss *stageScratch) grow(n, w int) {
	ss.g = growF(ss.g, n)
	ss.gC = growF(ss.gC, n)
	ss.d = growF(ss.d, n)
	ss.elim = growF(ss.elim, n)
	ss.V = growF(ss.V, n*w)
	ss.b = growF(ss.b, n*w)
	ss.acc = growF(ss.acc, n*w)
	ss.lo = growC(ss.lo, n*w)
	ss.mid = growC(ss.mid, n*w)
	ss.hi = growC(ss.hi, n*w)
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growC(buf []crossing, n int) []crossing {
	if cap(buf) < n {
		return make([]crossing, n)
	}
	return buf[:n]
}

// cornerScratch holds simulateCorner's per-netlist working slices: the
// stage levels and output directions both edges share, and one edgeScratch
// per launch edge.
type cornerScratch struct {
	level []int
	dirs  []bool // rising-launch output direction per stage
	work  []int
	edge  [2]edgeScratch
}

// edgeScratch is one launch edge's per-stage state. Every entry is zero
// while the scratch sits in the pool: stages skipped by the dirty-cone walk
// must read zero values, exactly as freshly made slices would give.
type edgeScratch struct {
	results    []*stageResult // nil = no input transition reached the stage
	inputs     []*Waveform
	reusedHead []bool
	need       []bool // stage misses the cache and must be integrated
	chosen     []*stageEntry
	// trim holds per-stage trimmed-input headers (TrimInto targets). A
	// header is cloned to the heap before it enters a cache entry, so
	// nothing outlives the evaluation that wrote it.
	trim []Waveform
}

var cornerPool = sync.Pool{New: func() any { return new(cornerScratch) }}

func getCornerScratch(n int) *cornerScratch {
	cs := cornerPool.Get().(*cornerScratch)
	if cap(cs.level) < n {
		cs.level = make([]int, n)
		cs.dirs = make([]bool, n)
		for c := range cs.edge {
			cs.edge[c] = edgeScratch{
				results:    make([]*stageResult, n),
				inputs:     make([]*Waveform, n),
				reusedHead: make([]bool, n),
				need:       make([]bool, n),
				chosen:     make([]*stageEntry, n),
				trim:       make([]Waveform, n),
			}
		}
		return cs
	}
	cs.level, cs.dirs = cs.level[:n], cs.dirs[:n]
	for c := range cs.edge {
		es := &cs.edge[c]
		es.results = es.results[:n]
		es.inputs = es.inputs[:n]
		es.reusedHead = es.reusedHead[:n]
		es.need = es.need[:n]
		es.chosen = es.chosen[:n]
		es.trim = es.trim[:n]
	}
	return cs
}

// putCornerScratch zeroes what an evaluation wrote and pools the scratch.
// Clearing here rather than on checkout also keeps pooled headers from
// pinning waveforms the cache has already dropped.
func putCornerScratch(cs *cornerScratch) {
	clear(cs.level)
	cs.work = cs.work[:0]
	for c := range cs.edge {
		es := &cs.edge[c]
		clear(es.results)
		clear(es.inputs)
		clear(es.reusedHead)
		clear(es.need)
		clear(es.chosen)
		clear(es.trim)
	}
	cornerPool.Put(cs)
}
