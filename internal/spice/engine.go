package spice

import (
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
	res := make([]*analysis.Result, len(corners))
	for i := range outs {
		res[i] = outs[i].res
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
	res       *analysis.Result
	entries   [2]map[int][]*stageEntry
	simulated int // edge transients integrated
	reused    int // edge transients served from the cache
}

// simulateCorners evaluates both launch edges of a corner group (one
// corner, or two with equal derates; see cornerGroups), propagating each
// source edge through the stages level by level. Corner k's launch edge c
// is column 2k+c. For every stage and column it first looks for a cached
// transient; the columns that miss integrate together in one simStage
// call. Stages within a level are independent, so their simulations run
// concurrently under sem (nil runs them serially).
//
// prev holds the previous cache generation per corner and edge, or is nil
// for an uncached evaluation. It is only read here; the entries to commit
// come back in outs (one per corner), so concurrent tasks never write
// shared state.
func (e *Engine) simulateCorners(net *analysis.Net, group []tech.Corner, prev [][2]map[int][]*stageEntry, sem chan struct{}, outs []cornerOutcome) {
	n := len(net.Stages)
	ncol := 2 * len(group)
	cs := getCornerScratch(n)
	defer putCornerScratch(cs)
	var cache [4]map[int][]*stageEntry
	for k := range prev {
		cache[2*k], cache[2*k+1] = prev[k][0], prev[k][1]
	}

	// Rising-launch output direction per stage (the source driver is
	// non-inverting, every buffer stage inverts; the falling launch is the
	// complement) and dependency levels for scheduling.
	level, dirs := cs.level, cs.dirs
	maxLevel := 0
	for i, s := range net.Stages {
		if s.Parent < 0 {
			dirs[i] = true
			continue
		}
		dirs[i] = !dirs[s.Parent]
		level[i] = level[s.Parent] + 1
		if level[i] > maxLevel {
			maxLevel = level[i]
		}
	}

	for lv := 0; lv <= maxLevel; lv++ {
		work := cs.work[:0]
		for i, s := range net.Stages {
			if level[i] != lv {
				continue
			}
			key := s.Key()
			miss := false
			for c := 0; c < ncol; c++ {
				es := &cs.edge[c]
				out := &outs[c/2]
				var vin *Waveform
				if s.Parent >= 0 {
					pr := es.results[s.Parent]
					if pr == nil {
						continue // upstream never switched; neither do we
					}
					w, ok := pr.loadWaves[s.InputNode]
					if !ok {
						continue
					}
					vin = w.TrimInto(0.002*group[c/2].Vdd, &es.trim[i])
				}
				es.inputs[i] = vin
				// reusedHead: the stage was served from the previous
				// generation's newest entry, so its output is identical to
				// the last evaluation's and children may accept their own
				// newest entry without comparing waveforms.
				if ent := matchEntry(cache[c][key], s.Sig(), vin,
					s.Parent < 0 || es.reusedHead[s.Parent]); ent != nil {
					es.results[i] = &ent.res
					es.chosen[i] = ent
					es.reusedHead[i] = cache[c][key][0] == ent
					out.reused++
					continue
				}
				if vin == &es.trim[i] {
					// Cache miss: the input enters a long-lived cache entry,
					// so promote the scratch header to its own allocation
					// (the samples stay shared with the upstream waveform).
					h := *vin
					es.inputs[i] = &h
				}
				es.need[i] = true
				out.simulated++
				miss = true
			}
			if miss {
				work = append(work, i)
			}
		}
		runLimited(sem, len(work), func(wi int) {
			e.simColumns(net, group, cs, work[wi])
		})
		cs.work = work // keep any growth for the next level
	}

	nSinks := 0
	for _, s := range net.Stages {
		nSinks += len(s.Sinks)
	}
	for k, corner := range group {
		out := &outs[k]
		if prev != nil {
			for c := range launchEdges {
				out.entries[c] = commitEdge(net, cache[2*k+c], cs.edge[2*k+c].chosen)
			}
		}
		res := &analysis.Result{
			Corner:    corner,
			Rise:      make(map[int]float64, nSinks),
			Fall:      make(map[int]float64, nSinks),
			SinkSlew:  make(map[int]float64, nSinks),
			StageSlew: make(map[int]float64, n),
		}
		for c, rising := range launchEdges {
			addLaunch(res, net, cs.edge[2*k+c].results, rising, e.SourceSlew/2)
		}
		out.res = res
	}
}

// simColumns integrates stage i for every column of the group that missed
// the cache, all in one simStage call, and records fresh cache entries.
// Concurrent calls touch disjoint stages.
func (e *Engine) simColumns(net *analysis.Net, group []tech.Corner, cs *cornerScratch, i int) {
	s := net.Stages[i]
	var in [4]stageIn
	var col [4]int
	w := 0
	for k, corner := range group {
		drv, rd := stageDriver(net, s, corner)
		for c, rising := range launchEdges {
			es := &cs.edge[2*k+c]
			if !es.need[i] {
				continue
			}
			vin := es.inputs[i]
			if s.Parent < 0 {
				if rising {
					vin = Ramp(0, corner.Vdd, e.SourceSlew, e.Dt)
				} else {
					vin = Ramp(corner.Vdd, 0, e.SourceSlew, e.Dt)
				}
			}
			in[w] = stageIn{vin: vin, outRising: cs.dirs[i] == rising, corner: corner, drv: drv, rd: rd}
			col[w] = 2*k + c
			w++
		}
	}
	res := e.simStage(s, in[:w])
	for k := 0; k < w; k++ {
		es := &cs.edge[col[k]]
		ent := &stageEntry{sig: s.Sig(), input: es.inputs[i], res: res[k]}
		es.chosen[i] = ent
		es.results[i] = &ent.res
	}
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

// addLaunch folds one launch edge's stage results into res, walking the
// stages in topological order: sink arrivals go to Rise or Fall, and slews
// merge into the per-sink, per-stage and overall maxima and the violation
// count.
func addLaunch(res *analysis.Result, net *analysis.Net, results []*stageResult, rising bool, srcT50 float64) {
	arrivals := res.Fall
	if rising {
		arrivals = res.Rise
	}
	slewLimit := net.Tech.SlewLimit
	for i, s := range net.Stages {
		st := results[i]
		if st == nil {
			continue
		}
		for _, m := range s.Sinks {
			id := m.Slot
			arrivals[id] = st.t50[m.Node] - srcT50
			if old, ok := res.SinkSlew[id]; !ok || st.slew[m.Node] > old {
				res.SinkSlew[id] = st.slew[m.Node]
			}
		}
		stageMax := 0.0
		for _, sl := range st.slew {
			if sl > stageMax {
				stageMax = sl
			}
			if sl > res.MaxSlew {
				res.MaxSlew = sl
			}
			if sl > slewLimit {
				res.SlewViol++
			}
		}
		if stageMax > 0 {
			key := s.Key()
			if old, ok := res.StageSlew[key]; !ok || stageMax > old {
				res.StageSlew[key] = stageMax
			}
		}
	}
}

var _ analysis.Evaluator = (*Engine)(nil)

// EvaluateAll runs the engine at every corner of the tree's technology and
// returns the results in corner order.
func (e *Engine) EvaluateAll(tr *ctree.Tree) ([]*analysis.Result, error) {
	return e.EvaluateCorners(tr, tr.Arena().Tech.Corners)
}
