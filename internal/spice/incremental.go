package spice

import (
	"runtime"
	"sync"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// Incremental is the incremental, parallel form of the transient evaluator.
// It keeps an analysis.IncrementalNet on the tree plus a per-(corner, edge)
// cache of stage simulation results, so evaluating the network after a
// candidate move re-simulates only the dirty cone: the stages the move
// touched and everything downstream of them (whose input waveforms shift).
//
// A cached stage transient is reused when (a) the stage's content signature
// matches — same driver parameters and RC arrays, as hashed by the
// extractor — and (b) the stage sees the same input waveform it was
// simulated with, either because the whole upstream chain was reused or by
// direct sample comparison against the recorded input. Two generations of
// results are kept per stage, which makes the cascade's characteristic
// apply-evaluate-revert patterns (model probes, rejected IVC rounds) cheap:
// the revert's evaluation finds the pre-mutation generation and promotes
// it instead of re-integrating the cone.
//
// Independent stage simulations — across sibling subtrees, the rising and
// falling launch edges, and supply corners — run on a bounded worker pool
// (Parallelism goroutines, following the synthesis service's fixed-pool
// pattern). Because each stage simulation is deterministic and stages only
// depend on their upstream chain, results are bit-identical to the serial
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
	inc      *analysis.IncrementalNet
	launches map[launchKey]map[int][]*stageEntry

	// Stats counts evaluator work across the evaluator's lifetime.
	Stats IncrementalStats
}

// IncrementalStats counts incremental-evaluator work.
type IncrementalStats struct {
	Evals      int // corner evaluations performed
	StagesSim  int // stage transients actually integrated
	StagesHit  int // stage transients served from the cache
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

func (ie *Incremental) bind(tr *ctree.Tree) {
	if ie.inc != nil && ie.tree == tr {
		return
	}
	ie.tree = tr
	ie.inc = analysis.NewIncrementalNet(tr, ie.Eng.MaxSeg)
	ie.launches = make(map[launchKey]map[int][]*stageEntry)
}

// SetParallelism adjusts the stage-simulation worker budget (values < 1
// select serial). Safe between evaluations; results never depend on it.
// opt.Context applies its configured Parallelism through this method.
func (ie *Incremental) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	ie.Parallelism = n
}

// BatchHint reports the corner granularity that keeps the launch worker
// pool occupied: each corner contributes two launches (rising and falling
// edges), so a multiple of ceil(Parallelism/2) corners fills every worker.
// The sweep splitter aligns its chunk size to this.
func (ie *Incremental) BatchHint() int {
	h := (ie.Parallelism + 1) / 2
	if h < 1 {
		h = 1
	}
	return h
}

// Reset drops every cached stage result and the cached extraction. Call it
// after changing Eng's integration parameters.
func (ie *Incremental) Reset() {
	tr := ie.tree
	ie.inc = nil
	ie.bind(tr)
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

// EvaluateCorners implements analysis.CornerEvaluator: one extractor sync,
// then every (corner, edge) launch scheduled over the shared worker pool.
func (ie *Incremental) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*analysis.Result, error) {
	ie.bind(tr)
	net := ie.inc.Sync()
	ie.Stats.FullStages = len(net.Stages)

	type task struct {
		corner tech.Corner
		rising bool
	}
	tasks := make([]task, 0, 2*len(corners))
	for _, c := range corners {
		tasks = append(tasks, task{c, true}, task{c, false})
	}
	outs := make([]launchOutcome, len(tasks))
	sem := make(chan struct{}, ie.Parallelism)
	if ie.Parallelism <= 1 {
		for ti, t := range tasks {
			outs[ti] = ie.launch(net, t.corner, t.rising, sem)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(tasks))
		for ti := range tasks {
			go func(ti int) {
				defer wg.Done()
				outs[ti] = ie.launch(net, tasks[ti].corner, tasks[ti].rising, sem)
			}(ti)
		}
		wg.Wait()
	}

	// Commit caches and stats, then merge the two edges of each corner in
	// the same deterministic order as Engine.Evaluate.
	results := make([]*analysis.Result, len(corners))
	ti := 0
	for ci, c := range corners {
		res := &analysis.Result{
			Corner:    c,
			Rise:      make(map[int]float64),
			Fall:      make(map[int]float64),
			SinkSlew:  make(map[int]float64),
			StageSlew: make(map[int]float64),
		}
		worstSlew := -1.0
		for _, rising := range []bool{true, false} {
			out := &outs[ti]
			ti++
			ie.launches[launchKey{c, rising}] = out.entries
			ie.Stats.StagesSim += out.simulated
			ie.Stats.StagesHit += out.reusedCount
			lr := out.lr
			if lr.maxSlew > worstSlew {
				worstSlew = lr.maxSlew
				ie.Eng.LastWorstSlewDriver = lr.worstDriver
			}
			for id, t := range lr.sinkT50 {
				if rising {
					res.Rise[id] = t
				} else {
					res.Fall[id] = t
				}
			}
			for id, s := range lr.sinkSlew {
				if old, ok := res.SinkSlew[id]; !ok || s > old {
					res.SinkSlew[id] = s
				}
			}
			for id, s := range lr.stageSlew {
				if old, ok := res.StageSlew[id]; !ok || s > old {
					res.StageSlew[id] = s
				}
			}
			if lr.maxSlew > res.MaxSlew {
				res.MaxSlew = lr.maxSlew
			}
			res.SlewViol += lr.viol
		}
		ie.Eng.Runs++
		ie.Stats.Evals++
		results[ci] = res
	}
	return results, nil
}

// launchOutcome is one launch's aggregated measurements plus the cache
// entries to commit for it.
type launchOutcome struct {
	lr          launchResult
	entries     map[int][]*stageEntry
	simulated   int
	reusedCount int
}

// launch evaluates one (corner, edge) pair over the staged netlist. It only
// reads shared evaluator state (the previous cache generation); the caller
// commits the returned entries after all launches finish.
func (ie *Incremental) launch(net *analysis.Net, corner tech.Corner, rising bool, sem chan struct{}) launchOutcome {
	e := ie.Eng
	tk := net.Tree.Tech
	vdd := corner.Vdd
	n := len(net.Stages)
	prev := ie.launches[launchKey{corner, rising}]

	ls := getLaunchScratch(n)
	defer launchPool.Put(ls)
	results := ls.results // nil = no input transition reached it
	inputs := ls.inputs
	// reusedHead[i]: stage i was served from the previous launch's newest
	// entry — its output is identical to the last evaluation's, so children
	// may accept their own newest entry without comparing waveforms.
	reusedHead := ls.reusedHead

	// Output-edge direction per stage (the source driver is non-inverting,
	// every buffer stage inverts) and dependency levels for scheduling.
	dirs := ls.dirs
	level := ls.level
	maxLevel := 0
	for i, s := range net.Stages {
		if s.Parent < 0 {
			dirs[i] = rising
			continue
		}
		dirs[i] = !dirs[s.Parent]
		level[i] = level[s.Parent] + 1
		if level[i] > maxLevel {
			maxLevel = level[i]
		}
	}

	out := launchOutcome{entries: make(map[int][]*stageEntry, n)}
	chosen := ls.chosen // cache entry serving/recording stage i

	// Level by level: decide cache hit or simulate; stages within a level
	// are independent, so the misses integrate concurrently on the pool.
	for lv := 0; lv <= maxLevel; lv++ {
		work := ls.work[:0]
		for i, s := range net.Stages {
			if level[i] != lv {
				continue
			}
			var vin *Waveform
			if s.Parent >= 0 {
				pr := results[s.Parent]
				if pr == nil {
					continue // upstream never switched; neither do we
				}
				w, ok := pr.loadWaves[s.InputNode]
				if !ok {
					continue
				}
				vin = w.TrimInto(0.002*vdd, &ls.trim[i])
			}
			inputs[i] = vin
			if ent := matchEntry(prev[stageCacheKey(s)], s.Sig(), vin,
				s.Parent < 0 || reusedHead[s.Parent]); ent != nil {
				results[i] = &ent.res
				chosen[i] = ent
				reusedHead[i] = len(prev[stageCacheKey(s)]) > 0 && prev[stageCacheKey(s)][0] == ent
				out.reusedCount++
				continue
			}
			if vin == &ls.trim[i] {
				// Cache miss: the input enters a long-lived cache entry, so
				// promote the scratch header to its own allocation (samples
				// stay shared with the upstream waveform, as Trim shares
				// them).
				c := *vin
				inputs[i] = &c
			}
			work = append(work, i)
		}
		runLimited(sem, len(work), func(wi int) {
			i := work[wi]
			s := net.Stages[i]
			vin := inputs[i]
			if s.Parent < 0 {
				if rising {
					vin = Ramp(0, vdd, e.SourceSlew, e.Dt)
				} else {
					vin = Ramp(vdd, 0, e.SourceSlew, e.Dt)
				}
			}
			rd := net.DriverR(s, corner)
			var drv driver
			if s.Driver == nil {
				drv = resistorDriver{r: rd}
			} else {
				drv = inverterDriver{k: tk.KDrive(*s.Driver.Buf), vdd: vdd, vt: tk.Vt}
			}
			st := e.simStage(s, drv, vin, dirs[i], corner, rd)
			results[i] = &st
		})
		for _, i := range work {
			s := net.Stages[i]
			chosen[i] = &stageEntry{sig: s.Sig(), input: inputs[i], res: *results[i]}
			out.simulated++
		}
		ls.work = work // keep any growth for the next level
	}

	// Commit policy: newest entry first, plus the most recent distinct
	// predecessor — two generations, enough to recover the pre-mutation
	// state when a probe or a rejected round is reverted.
	for i, s := range net.Stages {
		key := stageCacheKey(s)
		if chosen[i] == nil {
			if old := prev[key]; old != nil {
				out.entries[key] = old
			}
			continue
		}
		if old := prev[key]; len(old) > 0 && old[0] == chosen[i] {
			// Steady-state cache hit on the newest entry: the committed
			// list is identical to the previous generation's (same head,
			// same ≤1 distinct predecessor), so reuse it instead of
			// allocating a copy per stage per launch.
			out.entries[key] = old
			continue
		}
		lst := append(make([]*stageEntry, 0, 2), chosen[i])
		for _, ent := range prev[key] {
			if ent != chosen[i] && len(lst) < 2 {
				lst = append(lst, ent)
			}
		}
		out.entries[key] = lst
	}

	// Aggregate, walking stages in topological order so ties in the
	// worst-slew tracking break exactly as in the serial engine.
	nSinks := 0
	for i := range net.Stages {
		nSinks += len(net.Stages[i].Sinks)
	}
	lr := launchResult{
		sinkT50:     make(map[int]float64, nSinks),
		sinkSlew:    make(map[int]float64, nSinks),
		stageSlew:   make(map[int]float64, n),
		worstDriver: -1,
	}
	srcT50 := e.SourceSlew / 2
	for i, s := range net.Stages {
		st := results[i]
		if st == nil {
			continue
		}
		for _, m := range s.Sinks {
			lr.sinkT50[m.Sink.ID] = st.t50[m.Node] - srcT50
			lr.sinkSlew[m.Sink.ID] = st.slew[m.Node]
		}
		key := -1
		if s.Driver != nil {
			key = s.Driver.ID
		}
		for j := range st.slew {
			if st.slew[j] > lr.maxSlew {
				lr.maxSlew = st.slew[j]
				lr.worstDriver = key
			}
			if st.slew[j] > lr.stageSlew[key] {
				lr.stageSlew[key] = st.slew[j]
			}
			if st.slew[j] > tk.SlewLimit {
				lr.viol++
			}
		}
	}
	out.lr = lr
	return out
}

// matchEntry finds a cached transient valid for a stage with the given
// content signature and input waveform. headFast short-circuits the sample
// comparison for the newest entry when the upstream chain is known
// unchanged (source stages, or a parent served from its own newest entry).
func matchEntry(entries []*stageEntry, sig uint64, vin *Waveform, headFast bool) *stageEntry {
	if sig == 0 {
		return nil // unsigned stages never match
	}
	for gi, ent := range entries {
		if ent.sig != sig {
			continue
		}
		if vin == nil { // source stage: deterministic ramp
			return ent
		}
		if headFast && gi == 0 {
			return ent
		}
		if waveEqual(vin, ent.input) {
			return ent
		}
	}
	return nil
}

// waveEqual reports exact sample-level equality of two waveforms.
func waveEqual(a, b *Waveform) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.T0 != b.T0 || a.Dt != b.Dt || a.V0 != b.V0 || len(a.V) != len(b.V) {
		return false
	}
	for i := range a.V {
		if a.V[i] != b.V[i] {
			return false
		}
	}
	return true
}

// stageCacheKey mirrors the extractor's driver keying (-1 = source stage).
func stageCacheKey(s *analysis.Stage) int {
	if s.Driver == nil {
		return -1
	}
	return s.Driver.ID
}

var _ analysis.CornerEvaluator = (*Incremental)(nil)
