package spice

import (
	"container/list"
	"math"
	"runtime"
	"slices"
	"sync"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// Incremental is the incremental, parallel form of the transient evaluator.
// It keeps a per-(corner, edge) cache of stage simulation results, so
// evaluating the network after a candidate move re-simulates only the dirty
// cone: the stages the move changed and everything downstream of them
// (whose input waveforms shift). Every evaluation extracts the whole tree
// afresh; the cone is found by content alone, so any mutation — through
// the ctree operations or a direct field write — is seen.
//
// A cached stage transient is reused when (a) the stage's content signature
// matches — same driver parameters and RC arrays, as hashed by the
// extractor — and (b) the stage sees the same input waveform it was
// simulated with, either because it was recorded under the same chain key
// (the signatures of the stage and every stage upstream of it, folded into
// one word; see chainKeys) or by direct sample comparison against the
// recorded input. Two generations of results are kept per stage, which
// makes the cascade's characteristic apply-evaluate-revert patterns (model
// probes, rejected IVC rounds) cheap. The cascade reports each such undo
// through Revert, which makes the pre-mutation entries every stage's
// newest again, so the next trial does not push them out.
//
// Whole networks are memoized too. The cascade revisits networks it has
// evaluated before: a baseline is evaluated again after every probe
// revert, bottom-level probes repeat on an unchanged tree, and a
// convergence cycle's wire passes replay trials the standalone passes
// rejected, often after enough other trials that two stage generations no
// longer hold them. After extraction, and before any stage is matched, an
// evaluation looks its network up by the stage signatures in extraction
// order, the corner list and the slew limit (which no signature covers);
// the key trusts exactly what the stage cache trusts. A hit expands the
// stored flat results into fresh maps without simulating or matching a
// stage and leaves the stage cache as it is; it still counts one Eng.Runs
// per corner, and its stage transients count as cache hits. The memo
// evicts least recently used networks beyond netMemoBudget bytes and
// skips a network larger than that; Reset and a new tree clear it with
// the stage cache.
//
// A cached stage transient may be suspended (see simStage): a later
// evaluation that reuses it under a child reading further extends it in
// place, and a stage integrated again starts about as far ahead as its
// children read its newest cached transient. The memo stores flat
// results only. An entry the cache drops is collected once no cached
// child can still pull it: a child's unfinished transient holds its
// parent's.
//
// Each supply corner is one task, or two adjacent corners whose
// interconnect derates are equal (the default ispd09 pair) share one: a
// task integrates the rising and falling launch edges of every corner it
// holds together in one kernel sweep over one RC set-up, whatever misses
// the cache. Within a task a stage starts as soon as its parent's
// transient is known: Parallelism workers per task take stages from a
// ready queue, and at most Parallelism stage integrations run at once
// across all tasks (the synthesis service's fixed-budget pattern).
// Because each stage simulation is deterministic, a column's arithmetic
// does not depend on which columns share its sweep, and stages only depend
// on their upstream chain, results are bit-identical to the serial
// whole-tree Engine at any parallelism level.
//
// An Incremental is not safe for concurrent Evaluate calls; the
// parallelism is internal. Engine knobs (Dt, MaxSeg, SourceSlew, SettleTol)
// must not change between evaluations — call Reset after retuning them.
type Incremental struct {
	// Eng supplies the simulation parameters and accumulates the Runs
	// counter, exactly as if it had evaluated the network itself.
	Eng *Engine
	// Parallelism bounds concurrent stage simulations (1 = serial).
	Parallelism int

	tree     *ctree.Tree
	launches map[launchKey]map[int][]*stageEntry
	// undo holds, per launch, the stages whose newest entry its latest
	// evaluation changed (none after a memo hit), for Revert.
	undo map[launchKey][]int
	memo *netMemo
	// net is re-extracted in place by every evaluation; sigs holds its
	// stage signatures, the memo's lookup key.
	net  analysis.Net
	sigs []uint64

	// Stats counts evaluator work across the evaluator's lifetime.
	Stats IncrementalStats
}

// IncrementalStats counts incremental-evaluator work.
type IncrementalStats struct {
	Evals      int // corner evaluations performed
	NetHits    int // corner evaluations served whole from the network memo
	StagesSim  int // stage transients actually integrated
	StagesHit  int // stage transients served from a cache (stage or network)
	FullStages int // stage count at the last evaluation (cone-size context)
}

// launchKey identifies one cached launch: a supply corner and the direction
// of the source transition.
type launchKey struct {
	corner tech.Corner
	rising bool
}

// stageEntry caches one stage transient for one launch: the stage content
// it was integrated for, the input waveform it was driven with (nil for the
// source stage, whose ramp is deterministic), and the measurements.
type stageEntry struct {
	chain uint64 // the stage's chain key (chainKeys) when integrated
	sig   uint64
	input *Waveform
	res   stageResult
}

// NewIncremental creates an incremental evaluator over eng's parameters for
// tr. A nil eng gets production defaults (New). parallelism <= 0 selects
// GOMAXPROCS workers.
func NewIncremental(tr *ctree.Tree, eng *Engine, parallelism int) *Incremental {
	if eng == nil {
		eng = New()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	ie := &Incremental{Eng: eng, Parallelism: parallelism}
	ie.bind(tr)
	return ie
}

// Name implements analysis.Evaluator.
func (ie *Incremental) Name() string { return "transient-incremental" }

// bind points the evaluator at tr, dropping the caches when the tree
// changes.
func (ie *Incremental) bind(tr *ctree.Tree) {
	if ie.launches != nil && ie.tree == tr {
		return
	}
	ie.tree = tr
	ie.Reset()
}

// Reset drops every cached stage result and every memoized network. Call
// it after changing Eng's integration parameters.
func (ie *Incremental) Reset() {
	ie.launches = make(map[launchKey]map[int][]*stageEntry)
	ie.undo = make(map[launchKey][]int)
	ie.memo = newNetMemo(netMemoBudget)
}

// Evaluate implements analysis.Evaluator with per-stage caching and
// parallel dirty-cone simulation.
func (ie *Incremental) Evaluate(tr *ctree.Tree, corner tech.Corner) (*analysis.Result, error) {
	rs, err := ie.EvaluateCorners(tr, []tech.Corner{corner})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// EvaluateCorners implements analysis.Evaluator: one extraction, then a
// network-memo lookup, and on a miss one task per corner group
// (cornerGroups), the tasks sharing one integration budget. A task runs both
// launch edges of its one or two corners (Engine.simulateCorners); cache
// matching, hits and commits stay per (corner, edge). The evaluated
// network then enters the memo.
func (ie *Incremental) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*analysis.Result, error) {
	ie.bind(tr)
	net := &ie.net
	if err := net.Extract(tr.Arena(), ie.Eng.MaxSeg); err != nil {
		return nil, err
	}
	ie.Stats.FullStages = len(net.Stages)
	ie.sigs = ie.sigs[:0]
	for _, s := range net.Stages {
		ie.sigs = append(ie.sigs, s.Sig())
	}
	slewLimit := net.Tech.SlewLimit
	hash := netHash(ie.sigs, corners, slewLimit)
	if ent := ie.memo.lookup(hash, ie.sigs, corners, slewLimit); ent != nil {
		results := make([]*analysis.Result, len(corners))
		for ci, c := range corners {
			for _, rising := range launchEdges {
				delete(ie.undo, launchKey{c, rising})
			}
			results[ci] = ent.flats[ci].result(c, ent.keys, net.Slots)
			ie.Stats.StagesHit += ent.transients[ci]
			ie.Stats.NetHits++
			ie.Stats.Evals++
			ie.Eng.Runs++
		}
		return results, nil
	}

	outs := make([]cornerOutcome, len(corners))
	prev := make([][2]map[int][]*stageEntry, len(corners))
	for ci, c := range corners {
		for k, rising := range launchEdges {
			prev[ci][k] = ie.launches[launchKey{c, rising}]
		}
	}
	groups := cornerGroups(corners)
	sem := make(chan struct{}, ie.Parallelism)
	run := func(g cornerGroup) {
		ie.Eng.simulateCorners(net, corners[g.start:g.end], prev[g.start:g.end], sem, outs[g.start:g.end])
	}
	if ie.Parallelism <= 1 {
		for _, g := range groups {
			run(g)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(groups))
		for _, g := range groups {
			go func(g cornerGroup) {
				defer wg.Done()
				run(g)
			}(g)
		}
		wg.Wait()
	}

	// Commit caches, stats and the memo entry in corner order.
	ent := &netEntry{
		hash:       hash,
		sigs:       slices.Clone(ie.sigs),
		corners:    slices.Clone(corners),
		slewLimit:  slewLimit,
		keys:       resultKeysOf(net),
		flats:      make([]flatResult, len(corners)),
		transients: make([]int, len(corners)),
	}
	results := make([]*analysis.Result, len(corners))
	for ci, c := range corners {
		out := &outs[ci]
		for k, rising := range launchEdges {
			lk := launchKey{c, rising}
			prevGen, keys := ie.launches[lk], ie.undo[lk][:0]
			for _, s := range net.Stages { // the stages whose newest entry changed
				lst, old := out.entries[k][s.Key()], prevGen[s.Key()]
				if len(lst) > 0 && (len(old) == 0 || old[0] != lst[0]) {
					keys = append(keys, s.Key())
				}
			}
			ie.undo[lk], ie.launches[lk] = keys, out.entries[k]
		}
		ie.Stats.StagesSim += out.simulated
		ie.Stats.StagesHit += out.reused
		ie.Eng.Runs++
		ie.Stats.Evals++
		ent.flats[ci] = out.flat
		ent.transients[ci] = out.simulated + out.reused
		results[ci] = out.flat.result(c, ent.keys, net.Slots)
	}
	ie.memo.add(ent)
	return results, nil
}

// Revert tells the evaluator that the tree is back at the network it saw
// before its latest evaluation, a trial the caller undid. Per launch, each
// stage the trial gave a new newest entry gets its previous one back, the
// trial's kept second, and a stage only the trial had is dropped, as a
// commit after re-evaluating the restored tree would leave them (a stage
// the trial removed is not brought back). After a memo hit, and on a
// second call, it is a no-op.
func (ie *Incremental) Revert() {
	for lk, keys := range ie.undo {
		gen := ie.launches[lk]
		for _, key := range keys {
			if lst := gen[key]; len(lst) == 2 {
				gen[key] = []*stageEntry{lst[1], lst[0]}
			} else {
				delete(gen, key)
			}
		}
		delete(ie.undo, lk)
	}
}

// matchEntry finds a cached transient valid for a stage with the given
// content signature, chain key and input waveform (nil for the source
// stage, whose ramp is deterministic). An entry recorded under the same
// chain key saw the same input, so the sample comparison is skipped.
func matchEntry(entries []*stageEntry, sig, chain uint64, vin *Waveform) *stageEntry {
	for _, ent := range entries {
		if ent.sig != sig {
			continue
		}
		if vin == nil || ent.chain == chain || waveEqual(vin, ent.input) {
			return ent
		}
	}
	return nil
}

// waveEqual reports exact sample-level equality of two waveforms, however
// each splits its samples between stored ones and the implicit tail. An
// unfinished waveform is compared as far as its samples are computed, and
// pulled further only while they agree: most candidates differ within the
// first few samples, and a match has to be pulled to its producer's stop.
func waveEqual(a, b *Waveform) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.T0 != b.T0 || a.Dt != b.Dt || a.V0 != b.V0 {
		return false
	}
	sa, sb := a.pull(1), b.pull(1)
	for i := 0; sa.feed != nil || sb.feed != nil; i++ {
		if sa.feed != nil && i >= sa.known() {
			sa = a.pull(i + extendChunk)
		}
		if sb.feed != nil && i >= sb.known() {
			sb = b.pull(i + extendChunk)
		}
		if i >= sa.known() || i >= sb.known() {
			return i >= sa.known() && i >= sb.known()
		}
		if sa.sample(i) != sb.sample(i) {
			return false
		}
	}
	a, b = &sa, &sb
	if a.Len() != b.Len() {
		return false
	}
	// Past the longer stored part both repeat the last samples compared
	// at its end.
	for i, n := 0, max(len(a.V), len(b.V)); i < n; i++ {
		if a.sample(i) != b.sample(i) {
			return false
		}
	}
	return true
}

// netMemoBudget bounds the bytes the network memo of one Incremental
// retains. A memoized network costs about 56 bytes per sink at the ispd09
// corner pair: 28 KB on the largest ISPD'09 contest design, 283 KB on a
// 5k-sink design. The cascade's revisits come back within 14 networks on
// the contest designs and within 3 on the 5k-sink scale plan, so 1 MiB
// keeps every revisit of both while bounding what the memo adds to the
// live heap (and so to peak RSS, which the garbage collector's pacing
// makes about twice that). A network larger than the whole budget is not
// memoized.
const netMemoBudget = 1 << 20

// netEntry is one memoized network: its key (the stage signatures in
// extraction order, the corner list and the slew limit) and, per corner,
// the evaluation in flat form and the edge transients it stood for.
type netEntry struct {
	hash       uint64
	sigs       []uint64
	corners    []tech.Corner
	slewLimit  float64
	keys       resultKeys
	flats      []flatResult
	transients []int
	size       int
}

// netMemo maps whole networks to their results, evicting the least
// recently used once it holds more than budget bytes.
type netMemo struct {
	byHash        map[uint64][]*list.Element // elements of lru
	lru           *list.List                 // *netEntry, most recently used first
	bytes, budget int
}

func newNetMemo(budget int) *netMemo {
	return &netMemo{byHash: make(map[uint64][]*list.Element), lru: list.New(), budget: budget}
}

// netHash hashes a memo key (FNV-1a over its words); lookup compares the
// full key.
func netHash(sigs []uint64, corners []tech.Corner, slewLimit float64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	for _, sig := range sigs {
		mix(sig)
	}
	mix(uint64(len(corners)))
	for _, c := range corners {
		mix(math.Float64bits(c.Vdd))
	}
	mix(math.Float64bits(slewLimit))
	return h
}

// lookup returns the memoized network with exactly this key, marking it
// most recently used, or nil.
func (m *netMemo) lookup(hash uint64, sigs []uint64, corners []tech.Corner, slewLimit float64) *netEntry {
	for _, el := range m.byHash[hash] {
		ent := el.Value.(*netEntry)
		if slices.Equal(ent.sigs, sigs) && slices.Equal(ent.corners, corners) && ent.slewLimit == slewLimit {
			m.lru.MoveToFront(el)
			return ent
		}
	}
	return nil
}

// add memoizes ent as the most recently used network, then evicts from
// the least recently used end while the memo is over budget. A network
// larger than the whole budget is not memoized.
func (m *netMemo) add(ent *netEntry) {
	// Slice headers and the entry itself: 256 bytes.
	ent.size = 8*len(ent.sigs) + 4*(len(ent.keys.sinks)+len(ent.keys.stages)) + 256
	for i := range ent.flats {
		ent.size += ent.flats[i].bytes()
	}
	if ent.size > m.budget {
		return
	}
	m.byHash[ent.hash] = append(m.byHash[ent.hash], m.lru.PushFront(ent))
	m.bytes += ent.size
	for m.bytes > m.budget {
		m.evict(m.lru.Back())
	}
}

func (m *netMemo) evict(el *list.Element) {
	ent := m.lru.Remove(el).(*netEntry)
	m.bytes -= ent.size
	lst := slices.DeleteFunc(m.byHash[ent.hash], func(e *list.Element) bool { return e == el })
	if len(lst) == 0 {
		delete(m.byHash, ent.hash)
	} else {
		m.byHash[ent.hash] = lst
	}
}

var _ analysis.Evaluator = (*Incremental)(nil)
