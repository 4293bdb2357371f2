package spice

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/tech"
)

// refRun describes how refStage's column ran, for coverage counts.
type refRun struct {
	tEndMin, tMax float64
	stop          float64 // time of the last step
	lastMove      float64 // time of the last step that changed a bit (T0 if none)
	settled       bool    // settled at the last step
	lateCross     bool    // a threshold was crossed at or after tEndMin
}

// refStage integrates one column the plain way: every step in full, with
// the trackers and the settle check inline, every sample stored, on a
// materialized copy of the input read with At. simStage, which skips
// quiet steps, tracks and checks settling only when that can matter,
// carries chains in registers and stores settled tails implicitly, must
// match it bit for bit.
func refStage(e *Engine, s *analysis.Stage, ci stageIn) (stageResult, refRun) {
	n := len(s.R)
	dt := e.Dt
	rScale, cScale := ci.corner.RScale(), ci.corner.CScale()
	g, gC, d, elim := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		gC[i] = s.C[i] * cScale / dt
		if i > 0 {
			g[i] = 1 / (s.R[i] * rScale)
		}
	}
	for i := n - 1; i >= 1; i-- {
		d[i] = gC[i] + g[i] + elim[i]
		elim[s.Par[i]] += g[i] - g[i]*g[i]/d[i]
	}
	d[0] = gC[0] + elim[0]
	if d[0] <= 0 {
		d[0] = 1e-12
	}
	tau := 1.0
	if m := analysis.StageElmoreMaxAt(s, ci.rd, ci.corner); m > tau {
		tau = m
	}
	vdd := ci.corner.Vdd
	rail0, railF, sign := vdd, 0.0, -1.0
	th := [3]float64{-(0.9 * vdd), -(0.5 * vdd), -(0.1 * vdd)}
	if ci.outRising {
		rail0, railF, sign = 0, vdd, 1
		th = [3]float64{0.1 * vdd, 0.5 * vdd, 0.9 * vdd}
	}
	vin := &Waveform{T0: ci.vin.T0, Dt: ci.vin.Dt, V: samples(ci.vin), V0: ci.vin.V0}
	V, b, acc := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range V {
		V[i] = rail0
	}
	tr := make([]tracker, n)
	waves := map[int]*Waveform{}
	for _, ld := range s.Loads {
		if waves[ld.Node] == nil {
			waves[ld.Node] = &Waveform{T0: vin.T0, Dt: dt, V: []float64{rail0}, V0: rail0}
		}
	}
	tEndMin := vin.End() + 5*tau + 50
	tMax := tEndMin + 30*tau + 2000
	tol := e.SettleTol * vdd
	run := refRun{tEndMin: tEndMin, tMax: tMax, lastMove: vin.T0}
	// step sets node i to v, noting a changed bit and a new crossing.
	step := func(t float64, i int, v float64) {
		next := tr[i].next
		tr[i].observe(t, dt, sign*V[i], sign*v, &th)
		if math.Float64bits(v) != math.Float64bits(V[i]) {
			run.lastMove = t
		}
		run.lateCross = run.lateCross || (tr[i].next != next && t >= tEndMin)
		V[i] = v
	}
	for t, stop := vin.T0, false; !stop; {
		t += dt
		for i := n - 1; i >= 1; i-- {
			b[i] = gC[i]*V[i] + acc[i]
			acc[i] = 0
			acc[s.Par[i]] += g[i] * b[i] / d[i]
		}
		b0 := gC[0]*V[0] + acc[0]
		acc[0] = 0
		v0 := solveRoot(&ci.drv, vin.At(t), d[0], b0, V[0], vdd)
		step(t, 0, v0)
		settled := abs(v0-railF) <= tol
		for i := 1; i < n; i++ {
			v := (b[i] + g[i]*V[s.Par[i]]) / d[i]
			step(t, i, v)
			if abs(v-railF) > tol {
				settled = false
			}
		}
		for node, w := range waves {
			w.V = append(w.V, V[node])
		}
		stop = (t >= tEndMin && settled) || t >= tMax
		run.stop, run.settled = t, settled
	}
	res := stageResult{t50: make([]float64, n), slew: make([]float64, n), loadWaves: waves}
	for i, k := range tr {
		res.t50[i], res.slew[i] = math.Inf(1), math.Inf(1)
		if k.next > 1 {
			res.t50[i] = k.t[1]
		}
		if k.next == 3 {
			res.slew[i] = abs(k.t[2] - k.t[0])
		}
	}
	return res, run
}

// kernelCoverage counts what a kernel comparison exercised.
type kernelCoverage struct {
	widths     [5]int // simStage calls by column count
	tailInputs int    // columns whose input ended in an implicit tail
	tailOuts   int    // load waveforms with an implicit tail
	tmax       int    // stalled inverter columns, which can only stop at tMax
	onGrid     int    // columns whose steps fall on the input's sample grid
	offGrid    int    // columns whose steps do not
	lateCross  int    // columns crossing a threshold at or after tEndMin
	// lazySettle counts columns that stopped settled at tEndMin or later
	// with a state last changed before tEndMin: no full step that moved a
	// node computed the flag they stopped on.
	lazySettle int
}

// checkAgainstReference runs the columns together in one simStage call and
// each through refStage, failing unless every column agrees bit for bit.
func checkAgainstReference(t *testing.T, what string, e *Engine, s *analysis.Stage, in []stageIn, stalled []bool, cov *kernelCoverage) [4]stageResult {
	t.Helper()
	got := e.simStage(s, in)
	cov.widths[len(in)]++
	for c := range in {
		want, run := refStage(e, s, in[c])
		sameStageResult(t, fmt.Sprintf("%s, column %d of %d", what, c, len(in)), &got[c], &want)
		if vin := in[c].vin.complete(); vin.Tail > 0 {
			cov.tailInputs++
		}
		for _, w := range got[c].loadWaves {
			if w := w.complete(); w.Tail > 0 {
				cov.tailOuts++
			}
		}
		if in[c].vin.Dt == e.Dt && exactGrid(in[c].vin.T0, e.Dt, run.tMax) {
			cov.onGrid++
		} else {
			cov.offGrid++
		}
		if run.lateCross {
			cov.lateCross++
		}
		if run.settled && run.stop < run.tMax && run.lastMove+e.Dt < run.tEndMin {
			cov.lazySettle++
		}
		rail := 0.0
		if in[c].outRising {
			rail = in[c].corner.Vdd
		}
		if stalled[c] && in[c].drv.inverter {
			for _, w := range want.loadWaves {
				if abs(w.Last()-rail) > e.SettleTol*in[c].corner.Vdd {
					cov.tmax++
				}
				break
			}
		}
	}
	return got
}

// TestQuiescentSkipMatchesReferenceKernel: skipping quiet steps and
// storing settled tails implicitly must not change a bit of any result.
// Every stage of seeded random trees runs at every pvt5 corner, paired
// with the next corner of equal derates, as one to four columns in random
// order. A column's input is its parent's load waveform, trimmed as the
// engine trims it, so it ends in an implicit tail; or a random ramp,
// sometimes given a tail, sometimes stalled at mid-rail so its column runs
// to tMax. Each column must equal refStage's plain integration in t50,
// slew and every load sample. The time step runs at 1 ps, where step
// times fall on the input's sample grid, and at 0.7 ps, where they do not
// and interpolation inside a constant tail need not return the constant.
func TestQuiescentSkipMatchesReferenceKernel(t *testing.T) {
	base := tech.Default45()
	set, err := corners.Build("pvt5", base)
	if err != nil {
		t.Fatal(err)
	}
	tk := set.Apply(base)
	var cov kernelCoverage
	for _, dt := range []float64{1, 0.7} {
		e := New()
		e.Dt = dt
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := randomStagedTree(rng, tk)
			net := new(analysis.Net)
			if err := net.Extract(tr.Arena(), e.MaxSeg); err != nil {
				t.Fatal(err)
			}
			// Output direction of each stage under a rising launch.
			dirs := make([]bool, len(net.Stages))
			for i, s := range net.Stages {
				dirs[i] = s.Parent < 0 || !dirs[s.Parent]
			}
			for ca, corner := range tk.Corners {
				group := []tech.Corner{corner}
				for _, o := range tk.Corners[ca+1:] {
					if o.RScale() == corner.RScale() && o.CScale() == corner.CScale() {
						group = append(group, o)
						break
					}
				}
				// Lane 2k+c is corner k's launch edge c, as in the engine.
				nl := 2 * len(group)
				results := make([][4]*stageResult, len(net.Stages))
				for i, s := range net.Stages {
					lanes := rng.Perm(nl)[:1+rng.Intn(nl)]
					in := make([]stageIn, len(lanes))
					stalled := make([]bool, len(lanes))
					for k, l := range lanes {
						cn, rising := group[l/2], launchEdges[l%2]
						drv, rd := stageDriver(net, s, cn)
						var vin *Waveform
						switch {
						case s.Parent < 0 && rng.Intn(3) > 0:
							vin = Ramp(cn.Vdd, 0, e.SourceSlew, dt)
							if rising {
								vin = Ramp(0, cn.Vdd, e.SourceSlew, dt)
							}
						case s.Parent >= 0 && results[s.Parent][l] != nil && rng.Intn(3) > 0:
							vin = results[s.Parent][l].loadWaves[s.InputNode].TrimInto(0.002*cn.Vdd, new(Waveform))
						default:
							vin, stalled[k] = randomInput(rng, cn.Vdd, dt)
							if rng.Intn(2) == 0 {
								vin.Tail = rng.Intn(400)
							}
						}
						in[k] = stageIn{vin: vin, outRising: dirs[i] == rising, corner: cn, drv: drv, rd: rd}
					}
					got := checkAgainstReference(t, fmt.Sprintf("dt %v seed %d corner %d stage %d", dt, seed, ca, i), e, s, in, stalled, &cov)
					for k, l := range lanes {
						results[i][l] = &got[k]
					}
				}
			}
		}
	}
	checkKernelShapes(t, &cov)
	for w := 1; w <= 4; w++ {
		if cov.widths[w] == 0 {
			t.Errorf("no %d-column call", w)
		}
	}
	if cov.tailInputs == 0 || cov.tailOuts == 0 || cov.tmax == 0 {
		t.Errorf("coverage: %d inputs and %d outputs with implicit tails, %d columns at tMax", cov.tailInputs, cov.tailOuts, cov.tmax)
	}
	if cov.onGrid == 0 || cov.offGrid == 0 || cov.lateCross == 0 || cov.lazySettle == 0 {
		t.Errorf("coverage: %d on-grid and %d off-grid columns, %d crossing after tEndMin, %d stopping on a lazily computed settle flag",
			cov.onGrid, cov.offGrid, cov.lateCross, cov.lazySettle)
	}
	t.Logf("calls by width %v; %d tail inputs, %d tail outputs, %d columns at tMax; %d on grid, %d off grid, %d late crossings, %d lazy settles",
		cov.widths[1:], cov.tailInputs, cov.tailOuts, cov.tmax, cov.onGrid, cov.offGrid, cov.lateCross, cov.lazySettle)
}

// Stage shapes for randomRCStage.
const (
	shapeRandom     = iota // every node hangs from a random earlier one
	shapeChain             // every node hangs from the one before it
	shapeStar              // every node hangs from the root
	shapeRootBranch        // a chain with one more branch at the root
	shapeSubBranch         // a chain with one more branch at node 1
	numShapes
)

// randomRCStage builds a random RC tree of the given shape with a few
// load nodes: 1 to 12 nodes when random, else 3 to 12, each node hanging
// from an earlier one.
func randomRCStage(rng *rand.Rand, shape uint8) *analysis.Stage {
	n := 1 + rng.Intn(12)
	if shape != shapeRandom {
		n = max(n, 3)
	}
	s := &analysis.Stage{R: make([]float64, n), C: make([]float64, n), Par: make([]int, n)}
	s.Par[0] = -1
	for i := 0; i < n; i++ {
		s.C[i] = 0.5 + rng.Float64()*60
		if i > 0 {
			if shape == shapeRandom {
				s.Par[i] = rng.Intn(i)
			} else {
				s.Par[i] = i - 1
			}
			s.R[i] = 0.001 + rng.Float64()*0.2
		}
	}
	switch shape {
	case shapeStar:
		for i := 1; i < n; i++ {
			s.Par[i] = 0
		}
	case shapeRootBranch:
		s.Par[2+rng.Intn(n-2)] = 0
	case shapeSubBranch:
		if n > 3 {
			s.Par[3+rng.Intn(n-3)] = 1
		}
	}
	for k := rng.Intn(4); k >= 0; k-- {
		s.Loads = append(s.Loads, analysis.Load{Node: rng.Intn(n)})
	}
	return s
}

// randomKernelCase draws a random stage of the given shape and one to
// four columns for it at one random corner, each with its own source
// resistor or inverter driver and its own input: a random ramp sampled at
// dt, stalled at mid-rail for some, moved off the step grid for some, and
// given an implicit tail of tail samples.
func randomKernelCase(rng *rand.Rand, shape uint8, dt float64, tail, cols int) (*analysis.Stage, []stageIn, []bool) {
	s := randomRCStage(rng, shape)
	corner := tech.Corner{Vdd: 0.8 + rng.Float64()*0.5, RDerate: 0.8 + rng.Float64()*0.4, CDerate: 0.8 + rng.Float64()*0.4}
	in := make([]stageIn, cols)
	stalled := make([]bool, cols)
	for c := range in {
		drv, rd := driver{r: 0.05 + rng.Float64()}, 0.0
		if rng.Intn(3) > 0 {
			drv = driver{inverter: true, k: 0.2 + rng.Float64()*4, vdd: corner.Vdd, vt: 0.2 + rng.Float64()*0.2}
			rd = 1 / drv.k
		}
		rd = max(rd, drv.r)
		in[c].vin, stalled[c] = randomInput(rng, corner.Vdd, dt)
		if rng.Intn(2) == 0 {
			// Off the step grid: interpolation never lands on a sample.
			in[c].vin.T0 += rng.Float64()
		}
		in[c].vin.Tail = tail
		in[c].outRising = rng.Intn(2) == 0
		in[c].corner, in[c].drv, in[c].rd = corner, drv, rd
	}
	return s, in, stalled
}

// checkKernelShapes runs random stages of every shape the register-carried
// chains must handle (pure chains, stars, and chains branching at the
// root and right below it) and random trees against refStage, at Dt 1,
// where on-grid inputs are read by step index and held columns replay in
// closed form, and at Dt 0.7, where no input is on the grid, with one to
// four columns. Every third case gives its columns a driver resistance
// far below the real one, so that tEndMin comes while thresholds are
// still to cross, and every third one far above it, so that the state
// stops changing long before tEndMin and the settle flag the column stops
// on is computed by a quiet step or by the replay.
func checkKernelShapes(t *testing.T, cov *kernelCoverage) {
	for _, dt := range []float64{1, 0.7} {
		e := New()
		e.Dt = dt
		rng := rand.New(rand.NewSource(int64(dt * 10)))
		for trial := 0; trial < 40; trial++ {
			shape := uint8(trial % numShapes)
			tail := 0
			if rng.Intn(2) == 0 {
				tail = rng.Intn(400)
			}
			s, in, stalled := randomKernelCase(rng, shape, dt, tail, 1+rng.Intn(4))
			for c := range in {
				switch trial % 3 {
				case 1:
					in[c].rd /= 50
				case 2:
					in[c].rd *= 4
				}
			}
			checkAgainstReference(t, fmt.Sprintf("dt %v trial %d shape %d", dt, trial, shape), e, s, in, stalled, cov)
		}
	}
}

// FuzzStageKernel: on a random RC stage of any shape, driver, input
// waveform and time step, simStage with one to four columns must match
// refStage bit for bit. A shape of numShapes or more (odd multiples) drops
// the stage's loads, so its columns end at their last crossings. pulls is
// a schedule of reads that extends the suspended stage (checkPullSchedule).
func FuzzStageKernel(f *testing.F) {
	f.Add(int64(1), 1.0, uint16(0), uint8(0), uint8(shapeRandom), []byte{})
	f.Add(int64(2), 0.7, uint16(300), uint8(3), uint8(shapeChain), []byte{3, 40, 2})
	f.Add(int64(3), 2.0, uint16(40), uint8(1), uint8(shapeStar), []byte{255, 255})
	f.Fuzz(func(t *testing.T, seed int64, dt float64, tail uint16, cols, shape uint8, pulls []byte) {
		if math.IsNaN(dt) || math.IsInf(dt, 0) {
			dt = 1
		}
		dt = 0.1 + math.Mod(math.Abs(dt), 3) // keep windows short enough to fuzz
		rng := rand.New(rand.NewSource(seed))
		e := New()
		e.Dt = dt
		s, in, stalled := randomKernelCase(rng, shape%numShapes, dt, int(tail)%512, 1+int(cols%4))
		if shape/numShapes%2 == 1 {
			s.Loads = nil
		}
		var cov kernelCoverage
		checkAgainstReference(t, "fuzz", e, s, in, stalled, &cov)
		checkPullSchedule(t, e, s, in, pulls)
	})
}

// pullRun reports what checkPullSchedule exercised.
type pullRun struct {
	pulls     int  // reads that extended a suspended column
	midChunk  bool // a column stopped inside an extension, short of the samples asked for
	suspended bool // the stage suspended with an unfinished column
}

// checkPullSchedule integrates the columns again and reads their load
// waveforms in the order pulls gives: each byte picks a column and a
// load, and raises the sample count asked for by eight times its value.
// Every snapshot must cover the samples asked for unless its column has
// stopped first, and match refStage sample for sample; pulled to their
// ends afterwards, the waveforms must equal refStage's.
func checkPullSchedule(t *testing.T, e *Engine, s *analysis.Stage, in []stageIn, pulls []byte) pullRun {
	t.Helper()
	var pr pullRun
	got := e.simStage(s, in)
	want := make([]stageResult, len(in))
	for c := range in {
		want[c], _ = refStage(e, s, in[c])
		for _, w := range got[c].loadWaves {
			if _, done := w.final(); !done {
				pr.suspended = true
			}
		}
	}
	m := 0
	for _, b := range pulls {
		if len(s.Loads) == 0 {
			break
		}
		c := int(b) % len(in)
		node := s.Loads[int(b/4)%len(s.Loads)].Node
		m += 8 * int(b)
		w := got[c].loadWaves[node]
		_, doneBefore := w.final()
		snap := w.pull(m)
		ref := want[c].loadWaves[node]
		if !doneBefore {
			pr.pulls++
			pr.midChunk = pr.midChunk || (snap.feed == nil && snap.known() < m)
		}
		if snap.feed != nil && snap.known() < m {
			t.Fatalf("pull %d: column %d load %d covers %d samples, asked for %d", pr.pulls, c, node, snap.known(), m)
		}
		if snap.feed == nil && snap.known() != len(ref.V) {
			t.Fatalf("pull %d: column %d load %d finished with %d samples, reference %d", pr.pulls, c, node, snap.known(), len(ref.V))
		}
		for i := 0; i < snap.known(); i++ {
			if math.Float64bits(snap.sample(i)) != math.Float64bits(ref.V[i]) {
				t.Fatalf("pull %d: column %d load %d sample %d %v, reference %v", pr.pulls, c, node, i, snap.sample(i), ref.V[i])
			}
		}
	}
	for c := range in {
		sameStageResult(t, fmt.Sprintf("pulled column %d", c), &got[c], &want[c])
	}
	return pr
}

// TestGridReplayMatchesStepping: on the exact grid a held column counts
// the steps it has left in closed form; it must stop at exactly the time,
// step index and quiet count that stepping one dt at a time reaches. The
// settle flag the stop depends on is resolved by the replay itself.
func TestGridReplayMatchesStepping(t *testing.T) {
	cases := []struct {
		name           string
		t, dt, tEndMin float64
		tMax           float64
		settled        bool
		want           int // steps replayed
	}{
		{"threshold a whole number of steps away", 100, 1, 150, 2150, true, 50},
		{"threshold a whole number of quarter steps away", 100, 0.25, 110, 3000, true, 40},
		{"threshold between two steps", 100, 1, 150.5, 2150, true, 51},
		{"threshold just past a step", 100, 2, 150 + 0x1p-40, 2150, true, 26},
		{"at the threshold", 150, 1, 150, 2150, true, 0},
		{"past the threshold", 200, 1, 150, 2150, true, 0},
		{"unsettled, runs to tMax", 100, 1, 150, 2150, false, 2050},
		{"unsettled, tMax between two steps", 0.5, 0.5, 10, 999.75, false, 1999},
		{"unsettled, past tMax", 2200, 1, 150, 2150, false, 0},
	}
	for _, tc := range cases {
		if !exactGrid(tc.t, tc.dt, tc.tMax) {
			t.Fatalf("%s: not on the exact grid", tc.name)
		}
		// One settled node pair at the rail of 1 V; railF 0 leaves it
		// unsettled.
		col := column{t: tc.t, k: 7, quiet: 3, tEndMin: tc.tEndMin, tMax: tc.tMax, onGrid: true,
			V: [][4]float64{{1}, {1}}, railF: 1, tol: 0.01}
		if !tc.settled {
			col.railF = 0
		}
		stepping := col
		stepping.onGrid = false
		col.replay(tc.dt)
		stepping.replay(tc.dt)
		if n := col.quiet - 3; n != tc.want || col.k != 7+n {
			t.Errorf("%s: replayed %d steps to index %d, want %d", tc.name, n, col.k, tc.want)
		}
		if math.Float64bits(col.t) != math.Float64bits(stepping.t) || col.k != stepping.k ||
			col.quiet != stepping.quiet || !col.stopped || !stepping.stopped {
			t.Errorf("%s: closed form stopped at t=%v (index %d, %d quiet), stepping at t=%v (index %d, %d quiet)",
				tc.name, col.t, col.k, col.quiet, stepping.t, stepping.k, stepping.quiet)
		}
		if !col.settleKnown || col.settled != tc.settled {
			t.Errorf("%s: settle flag known=%v settled=%v", tc.name, col.settleKnown, col.settled)
		}
	}
}

// TestSettleFlagResolvedOnDemand: the settle flag is computed from the
// current state when a stop test first needs it, from tEndMin on, and a
// full step that moves a node invalidates it, so a quiet step past tEndMin
// stops the column exactly when its state is settled.
func TestSettleFlagResolvedOnDemand(t *testing.T) {
	V := [][4]float64{{0.999}, {1.004}}
	col := column{t: 99, tEndMin: 100, tMax: 1000, V: V, railF: 1, tol: 0.005}
	col.skip() // before tEndMin: no stop, and nothing to compute
	if col.stopped || col.settleKnown {
		t.Fatalf("step before tEndMin: stopped=%v, flag computed=%v", col.stopped, col.settleKnown)
	}
	col.t = 100
	col.skip()
	if !col.stopped || !col.settleKnown || !col.settled {
		t.Fatalf("quiet step at tEndMin on a settled state: stopped=%v", col.stopped)
	}
	// A full step moves node 1 off the rail: the flag of the old state
	// must not stop the column.
	col.stopped = false
	V[1][0] = 1.006
	col.t++
	col.commit(true, 0, 0, nil)
	if col.stopped || col.settled {
		t.Fatal("stopped on the settle flag of the state before the step")
	}
	// A full step that moves nothing keeps the flag it has.
	col.t++
	col.commit(false, 0, 0, nil)
	if col.stopped || !col.frozen {
		t.Fatalf("frozen unsettled column: stopped=%v frozen=%v", col.stopped, col.frozen)
	}
	// The root is checked with <= and the other nodes with >, so a NaN
	// root never counts as settled and a NaN node below it never unsettles.
	nan := math.NaN()
	for _, tc := range []struct {
		v0, v1 float64
		want   bool
	}{{nan, 1, false}, {1, nan, true}, {1, 1, true}} {
		c := column{t: 100, tEndMin: 100, tMax: 1000, V: [][4]float64{{tc.v0}, {tc.v1}}, railF: 1, tol: 0.005}
		if c.skip(); c.stopped != tc.want {
			t.Errorf("root %v, node %v: stopped=%v, want %v", tc.v0, tc.v1, c.stopped, tc.want)
		}
	}
}

// TestGridInputMatchesAt: on the exact grid a column reads its input by
// step index; at every step it must return what At returns at the step
// time, bit for bit, including the signed zeros, infinities and NaNs
// that interpolation with weight 0 turns into something other than the
// bare sample, inside the stored samples, in the implicit tail and past
// it.
func TestGridInputMatchesAt(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	traces := [][]float64{
		{negZero, negZero, 0.5, 1},
		{0.2, inf, 0.4, -inf, 0.6},
		{0.1, nan, 0.3},
		{0.3, negZero},
		{inf},
		{0.25, 0.5, 0.75},
	}
	for _, dt := range []float64{1, 0.5, 2} {
		for k, v := range traces {
			for _, tail := range []int{0, 3} {
				w := &Waveform{T0: 4 * dt, Dt: dt, V: v, Tail: tail, V0: 0.1}
				col := column{vin: *w, t: w.T0, tMax: w.End() + 10*dt}
				col.onGrid = exactGrid(col.t, dt, col.tMax)
				if !col.onGrid {
					t.Fatalf("trace %d: not on the exact grid", k)
				}
				for col.t < col.tMax {
					col.advance(dt)
					if got, want := col.input(), w.At(col.t); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("dt %v trace %d tail %d step %d: input %v, At %v", dt, k, tail, col.k, got, want)
					}
				}
			}
		}
	}
}
