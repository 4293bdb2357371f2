package spice

import (
	"slices"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// Engine is the transient clock-network evaluator (the flow's CNE step).
// It implements analysis.Evaluator. Runs counts Evaluate invocations, which
// is how the paper counts SPICE runs in its scalability study.
// An Engine is not safe for concurrent evaluations: it counts Runs and
// extracts into one retained netlist.
type Engine struct {
	// MaxSeg is the RC subdivision length in µm (0 = analysis default).
	MaxSeg float64
	// Dt is the integration timestep in ps.
	Dt float64
	// SourceSlew is the transition time of the ideal clock input ramp, ps.
	SourceSlew float64
	// SettleTol is the fraction of Vdd within which a node counts as
	// settled at its final rail.
	SettleTol float64

	// Runs is the number of transient analyses performed so far.
	Runs int

	// net is the netlist the last evaluation extracted into; keeping it
	// lets the next extraction reuse its stage storage.
	net analysis.Net
}

// New returns an engine with production defaults: 100 µm RC segments, 1 ps
// timestep, 20 ps input slew.
func New() *Engine {
	return &Engine{MaxSeg: 100, Dt: 1, SourceSlew: 20, SettleTol: 0.005}
}

// Name implements analysis.Evaluator.
func (e *Engine) Name() string { return "transient" }

// Evaluate implements analysis.Evaluator: it runs two transients (rising and
// falling source edges) at the given corner and reports 50% arrival times
// and worst 10-90% slews at every sink.
func (e *Engine) Evaluate(tr *ctree.Tree, corner tech.Corner) (*analysis.Result, error) {
	rs, err := e.EvaluateCorners(tr, []tech.Corner{corner})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// EvaluateCorners implements analysis.Evaluator: the tree is extracted
// once, into the engine's retained netlist, and the transients of every
// corner run over it, one corner group (cornerGroups) at a time.
func (e *Engine) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*analysis.Result, error) {
	net := &e.net
	if err := net.Extract(tr.Arena(), e.MaxSeg); err != nil {
		return nil, err
	}
	outs := make([]cornerOutcome, len(corners))
	for _, g := range cornerGroups(corners) {
		e.simulateCorners(net, corners[g.start:g.end], nil, nil, outs[g.start:g.end])
	}
	keys := resultKeysOf(net)
	res := make([]*analysis.Result, len(corners))
	for i, c := range corners {
		res[i] = outs[i].flat.result(c, keys, net.Slots)
		e.Runs++
	}
	return res, nil
}

// launchEdges lists the launch edges in column order: column 0 is the rising
// source edge, column 1 the falling one.
var launchEdges = [2]bool{true, false}

// cornerGroup is a range [start, end) of a corner list evaluated as one
// task.
type cornerGroup struct{ start, end int }

// cornerGroups splits a corner list into kernel tasks. Two adjacent
// corners whose interconnect derates are equal form one task: their
// conductances and elimination factors are equal bit for bit, so one
// simStage call integrates up to four columns (two corners × two edges)
// over one RC set-up. Every other corner is a task of its own.
func cornerGroups(corners []tech.Corner) []cornerGroup {
	var groups []cornerGroup
	for i := 0; i < len(corners); {
		end := i + 1
		if end < len(corners) && corners[i].RScale() == corners[end].RScale() &&
			corners[i].CScale() == corners[end].CScale() {
			end++
		}
		groups = append(groups, cornerGroup{i, end})
		i = end
	}
	return groups
}

// cornerOutcome is one corner's merged measurements plus, for a cached
// evaluation, the cache entries to commit per launch edge.
type cornerOutcome struct {
	flat      flatResult
	entries   [2]map[int][]*stageEntry
	simulated int // edge transients integrated
	reused    int // edge transients served from the cache
}

// simulateCorners evaluates both launch edges of a corner group (one
// corner, or two with equal derates; see cornerGroups), propagating each
// source edge from stage to stage. Corner k's launch edge c is column
// 2k+c. For every stage and column it first looks for a cached transient
// (matchStage); the columns that miss integrate together in one simStage
// call. A stage needs only its parent's transients, so walkStages starts
// each stage as soon as its parent is done, and at most cap(sem) stage
// integrations run at once across every group of the evaluation (a
// capacity of at most 1, or a nil sem, runs the stages serially in index
// order).
//
// prev holds the previous cache generation per corner and edge, or is nil
// for an uncached evaluation. It is only read here; the entries to commit
// come back in outs (one per corner), so concurrent tasks never write
// shared state.
func (e *Engine) simulateCorners(net *analysis.Net, group []tech.Corner, prev [][2]map[int][]*stageEntry, sem chan struct{}, outs []cornerOutcome) {
	n := len(net.Stages)
	cs := getCornerScratch(n)
	defer putCornerScratch(cs)
	var cache [4]map[int][]*stageEntry
	for k := range prev {
		cache[2*k], cache[2*k+1] = prev[k][0], prev[k][1]
	}
	cs.chain = chainKeys(net, cs.chain)

	// Rising-launch output direction per stage: the source driver is
	// non-inverting, every buffer stage inverts, and the falling launch is
	// the complement. The chain keys, the directions and the serial walk
	// all rely on extraction putting every parent before its children.
	dirs := cs.dirs
	for i, s := range net.Stages {
		if s.Parent >= i {
			panic("spice: stage extracted before its parent")
		}
		if s.Parent < 0 {
			dirs[i] = true
			continue
		}
		dirs[i] = !dirs[s.Parent]
	}

	walkStages(net, cap(sem), func(i int) {
		if !matchStage(net, group, cache, cs, i) {
			return
		}
		if cap(sem) > 1 {
			sem <- struct{}{}
			defer func() { <-sem }()
		}
		e.simColumns(net, group, cs, i)
	})

	nSinks := 0
	for _, s := range net.Stages {
		nSinks += len(s.Sinks)
	}
	for k := range group {
		out := &outs[k]
		for c := range launchEdges {
			es := &cs.edge[2*k+c]
			for i := 0; i < n; i++ {
				switch {
				case es.need[i]:
					out.simulated++
				case es.chosen[i] != nil:
					out.reused++
				}
			}
			if prev != nil {
				out.entries[c] = commitEdge(net, cache[2*k+c], es.chosen)
			}
		}
		out.flat = newFlatResult(nSinks, n)
		for c, rising := range launchEdges {
			addLaunch(&out.flat, net, cs.edge[2*k+c].chosen, rising, e.SourceSlew/2)
		}
	}
}

// matchStage looks up stage i's transient in the cache for every column
// of the group whose upstream stage switched, and marks the columns that
// miss. A column that misses gets, as its ahead steps, about how far its
// stage's newest cached transient has been read. It reports whether any
// column missed. It reads only the parent's entries and stage i's cached
// ones and writes only stage i's scratch, so stages whose parents are
// done can be matched concurrently.
func matchStage(net *analysis.Net, group []tech.Corner, cache [4]map[int][]*stageEntry, cs *cornerScratch, i int) bool {
	s := net.Stages[i]
	key := s.Key()
	miss := false
	for c := 0; c < 2*len(group); c++ {
		es := &cs.edge[c]
		if s.Parent >= 0 {
			up := es.chosen[s.Parent]
			if up == nil {
				continue // upstream never switched; neither do we
			}
			if _, ok := up.res.loadWaves[s.InputNode]; !ok {
				continue
			}
		}
		if ent := matchEntry(cache[c][key], s.Sig(), cs.chain[i]); ent != nil {
			es.chosen[i] = ent
			continue
		}
		if old := cache[c][key]; len(old) > 0 {
			// Run about as far as the stage's children read its last
			// transient. A little less, so that the reach follows a subtree
			// that has become faster; pulls make up any shortfall.
			ext := old[0].res.extent()
			es.ahead[i] = ext - ext/8
		}
		es.need[i] = true
		miss = true
	}
	return miss
}

// simColumns integrates stage i for every column of the group that missed
// the cache, all in one simStage call, and records fresh cache entries.
// A column's input is its parent's load waveform, trimmed here, inside
// the integration slot, since trimming may pull the parent's transient.
// Concurrent calls touch disjoint stages.
func (e *Engine) simColumns(net *analysis.Net, group []tech.Corner, cs *cornerScratch, i int) {
	s := net.Stages[i]
	var in [4]stageIn
	var trimmed [4]Waveform
	var col [4]int
	w := 0
	for k, corner := range group {
		drv, rd := stageDriver(net, s, corner)
		for c, rising := range launchEdges {
			es := &cs.edge[2*k+c]
			if !es.need[i] {
				continue
			}
			var vin *Waveform
			switch {
			case s.Parent >= 0:
				trimmed[w] = es.chosen[s.Parent].res.loadWaves[s.InputNode].Trim(0.002 * corner.Vdd)
				vin = &trimmed[w]
			case rising:
				vin = Ramp(0, corner.Vdd, e.SourceSlew, e.Dt)
			default:
				vin = Ramp(corner.Vdd, 0, e.SourceSlew, e.Dt)
			}
			in[w] = stageIn{vin: vin, outRising: cs.dirs[i] == rising, corner: corner, drv: drv, rd: rd, ahead: es.ahead[i]}
			col[w] = 2*k + c
			w++
		}
	}
	res := e.simStage(s, in[:w])
	for k := 0; k < w; k++ {
		cs.edge[col[k]].chosen[i] = &stageEntry{chain: cs.chain[i], sig: s.Sig(), res: res[k]}
	}
}

// chainKeys returns every stage's chain key in keys (resized to the
// stage count): the stage's signature folded into its parent's chain key.
// Equal chain keys mean equal signatures along the whole path from the
// source, so within one (corner, edge) column the stage sees the same
// input waveform: a cached transient recorded under the stage's chain key
// is valid without comparing samples. Like the signatures it folds, a
// chain key is a 64-bit hash, trusted as they are.
func chainKeys(net *analysis.Net, keys []uint64) []uint64 {
	keys = slices.Grow(keys[:0], len(net.Stages))[:len(net.Stages)]
	for i, s := range net.Stages {
		var up uint64
		if s.Parent >= 0 {
			up = keys[s.Parent]
		}
		// splitmix64 finalizer over the pair.
		h := up*0x9e3779b97f4a7c15 ^ s.Sig()
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		keys[i] = h ^ h>>31
	}
	return keys
}

// stageDriver returns the driver of stage s at corner and its effective
// resistance: the source resistor, or the stage's buffer as an inverter
// on the corner's supply.
func stageDriver(net *analysis.Net, s *analysis.Stage, corner tech.Corner) (driver, float64) {
	rd := net.DriverR(s, corner)
	if s.Driver < 0 {
		return driver{r: rd}, rd
	}
	tk := net.Tech
	return driver{inverter: true, k: tk.KDrive(s.Buf), vdd: corner.Vdd, vt: tk.Vt}, rd
}

// commitEdge builds one edge's next cache generation from the entries that
// served or recorded each stage: newest entry first, plus the most recent
// distinct predecessor. Two generations are enough to recover the
// pre-mutation state when a probe or a rejected round is reverted.
func commitEdge(net *analysis.Net, prev map[int][]*stageEntry, chosen []*stageEntry) map[int][]*stageEntry {
	next := make(map[int][]*stageEntry, len(net.Stages))
	for i, s := range net.Stages {
		key := s.Key()
		old := prev[key]
		if chosen[i] == nil {
			if old != nil {
				next[key] = old
			}
			continue
		}
		if len(old) > 0 && old[0] == chosen[i] {
			// Steady-state hit on the newest entry: the committed list is
			// identical to the previous generation's (same head, same ≤1
			// distinct predecessor), so reuse it instead of copying.
			next[key] = old
			continue
		}
		lst := append(make([]*stageEntry, 0, 2), chosen[i])
		for _, ent := range old {
			if ent != chosen[i] && len(lst) < 2 {
				lst = append(lst, ent)
			}
		}
		next[key] = lst
	}
	return next
}

// flatResult is one corner's evaluation in compact form, the only form an
// evaluation builds: per-sink arrivals and worst slews in the net's sink
// order (stage by stage, each stage's Sinks in order) with presence bits,
// and each stage's worst slew in stage order. result scatters it into a
// slot-indexed analysis.Result; the network memo stores it instead, as it
// is a fraction of the result's size.
type flatResult struct {
	rise, fall, slew []float64 // per sink
	has              []uint8   // per sink: analysis.HasRise | analysis.HasFall
	stageSlew        []float64 // per stage; 0 = no measured transition
	maxSlew          float64
	slewViol         int
}

// newFlatResult returns an empty flat result for nSinks sinks and nStages
// stages, its float slices cut from one allocation.
func newFlatResult(nSinks, nStages int) flatResult {
	buf := make([]float64, 3*nSinks+nStages)
	return flatResult{
		rise:      buf[:nSinks:nSinks],
		fall:      buf[nSinks : 2*nSinks : 2*nSinks],
		slew:      buf[2*nSinks : 3*nSinks : 3*nSinks],
		stageSlew: buf[3*nSinks:],
		has:       make([]uint8, nSinks),
	}
}

// bytes returns the memory f holds, slice headers included, for the
// network memo's budget.
func (f *flatResult) bytes() int {
	return 8*(len(f.rise)+len(f.fall)+len(f.slew)+len(f.stageSlew)) + len(f.has) + 5*24
}

// addLaunch folds one launch edge's stage results into f, walking the
// stages in topological order: sink arrivals go to rise or fall, and slews
// merge into the per-sink, per-stage and overall maxima and the violation
// count.
func addLaunch(f *flatResult, net *analysis.Net, chosen []*stageEntry, rising bool, srcT50 float64) {
	arrivals, bit := f.fall, analysis.HasFall
	if rising {
		arrivals, bit = f.rise, analysis.HasRise
	}
	slewLimit := net.Tech.SlewLimit
	j := 0 // sink index in net order
	for i, s := range net.Stages {
		if chosen[i] == nil {
			j += len(s.Sinks)
			continue
		}
		st := &chosen[i].res
		for _, m := range s.Sinks {
			arrivals[j] = st.t50[m.Node] - srcT50
			if sl := st.slew[m.Node]; f.has[j] == 0 || sl > f.slew[j] {
				f.slew[j] = sl
			}
			f.has[j] |= bit
			j++
		}
		stageMax := 0.0
		for _, sl := range st.slew {
			if sl > stageMax {
				stageMax = sl
			}
			if sl > f.maxSlew {
				f.maxSlew = sl
			}
			if sl > slewLimit {
				f.slewViol++
			}
		}
		if stageMax > f.stageSlew[i] {
			f.stageSlew[i] = stageMax
		}
	}
}

// resultKeys lists the slots of a network's results in net order: every
// sink's slot, stage by stage, and every stage's StageSlot.
type resultKeys struct {
	sinks, stages []int32
}

func resultKeysOf(net *analysis.Net) resultKeys {
	var k resultKeys
	k.stages = make([]int32, len(net.Stages))
	n := 0
	for i, s := range net.Stages {
		k.stages[i] = int32(net.StageSlot(s))
		n += len(s.Sinks)
	}
	k.sinks = make([]int32, 0, n)
	for _, s := range net.Stages {
		for _, m := range s.Sinks {
			k.sinks = append(k.sinks, int32(m.Slot))
		}
	}
	return k
}

// result scatters f into a fresh analysis.Result for corner over an arena
// of slots slots, at the slots keys names. A stage's StageSlew stays 0
// unless a transition was measured in it; a sink is present for each edge
// that reached it.
func (f *flatResult) result(corner tech.Corner, keys resultKeys, slots int) *analysis.Result {
	res := analysis.NewResult(corner, slots)
	res.MaxSlew, res.SlewViol = f.maxSlew, f.slewViol
	for j, slot := range keys.sinks {
		h := f.has[j]
		if h == 0 {
			continue
		}
		res.Has[slot] = h
		if h&analysis.HasRise != 0 {
			res.Rise[slot] = f.rise[j]
		}
		if h&analysis.HasFall != 0 {
			res.Fall[slot] = f.fall[j]
		}
		res.SinkSlew[slot] = f.slew[j]
	}
	for i, slot := range keys.stages {
		res.StageSlew[slot] = f.stageSlew[i]
	}
	return res
}

var _ analysis.Evaluator = (*Engine)(nil)

// EvaluateAll runs the engine at every corner of the tree's technology and
// returns the results in corner order.
func (e *Engine) EvaluateAll(tr *ctree.Tree) ([]*analysis.Result, error) {
	return e.EvaluateCorners(tr, tr.Arena().Tech.Corners)
}
