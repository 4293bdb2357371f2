package spice

import (
	"math"
	"slices"

	"contango/internal/analysis"
	"contango/internal/tech"
)

// stageIn is one column of a stage transient: one source edge at one
// corner. It carries the waveform at the driver's input pin, the direction
// of the stage's output edge, and the corner's supply, driver and driver
// resistance.
type stageIn struct {
	vin       *Waveform
	outRising bool
	corner    tech.Corner
	drv       driver
	rd        float64
}

// stageResult holds per-RC-node measurements of one stage transient.
type stageResult struct {
	t50       []float64 // absolute 50% crossing, ps (+Inf if never)
	slew      []float64 // 10-90% transition time, ps (+Inf if never)
	loadWaves map[int]*Waveform
}

// column is one edge's integration state inside simStage. Its crossing
// thresholds are sign-folded: the trackers see sign·V, with sign +1 for a
// rising output and -1 for a falling one, so both directions cross
// th[0] < th[1] < th[2] upwards.
type column struct {
	vin           *Waveform
	drv           driver
	vdd, tol      float64
	rail0, railF  float64
	sign          float64
	th            [3]float64
	t             float64
	tEndMin, tMax float64
	// onGrid: every step time lies exactly on vin's sample grid (exactGrid),
	// so the step at t is sample k of vin.
	onGrid bool
	k      int

	// V[i][slot] is the column's state at RC node i.
	V    [][4]float64
	slot int

	// pending counts the nodes with a threshold still to cross; the
	// trackers run only while it is positive.
	pending int

	// rec holds the recorded load samples, one row of len(loads) values
	// per recorded step, starting with the initial rail. quiet counts the
	// steps since the last row; each of them repeated it.
	rec   []float64
	quiet int

	// frozen: the last full step left every node of the column
	// bit-unchanged. b0 is the root's right-hand side in that state and u
	// an input under which the state repeats itself. held: frozen, and vin
	// returns u at every later step.
	frozen, held bool
	b0, u        float64

	// settled is the settle flag of the current state, valid while
	// settleKnown; a full step that moves a node invalidates it.
	settled, settleKnown, stopped bool
}

// advance moves the column to its next step time.
func (col *column) advance(dt float64) {
	col.t += dt
	col.k++
}

// input returns vin at the column's step time. On the exact grid that
// time is T0 + k·Dt, so At's index is k and its interpolation weight f is
// exactly 0; the interpolation is kept, with f = 0, so that -0, Inf and
// NaN samples give what At gives. Off the grid it is At.
func (col *column) input() float64 {
	w := col.vin
	if !col.onGrid || len(w.V) == 0 {
		return w.At(col.t)
	}
	k, last := col.k, len(w.V)-1
	if k >= last+w.Tail {
		return w.V[last]
	}
	f := 0.0
	if k >= last {
		c := w.V[last]
		return c*(1-f) + c*f
	}
	return w.V[k]*(1-f) + w.V[k+1]*f
}

// isQuiet reports whether the column's step at col.t provably leaves its
// state unchanged. A step is a pure function of the state and the input
// sample: it reduces the tree to the root's right-hand side, solves the
// root and back-substitutes. In a frozen column the input u is known to
// repeat the state; any other input does too if the root solve from the
// cached right-hand side returns the root's voltage bit for bit, since the
// back-substitution then repeats the freezing step's. The input is read
// only until it is held.
func (col *column) isQuiet(d0 float64) bool {
	if !col.frozen {
		return false
	}
	if col.held {
		return true
	}
	u := col.input()
	if math.Float64bits(u) != math.Float64bits(col.u) {
		v0 := col.V[0][col.slot]
		if math.Float64bits(solveRoot(&col.drv, u, d0, col.b0, v0, col.vdd)) != math.Float64bits(v0) {
			return false
		}
		col.u = u
	}
	col.held = col.vin.heldFrom(col.t, col.onGrid)
	return true
}

// skip books a quiet step: nothing moves, so the trackers and the settled
// flag hold, and the load samples repeat the last row.
func (col *column) skip() {
	col.quiet++
	col.stop()
}

// replay finishes a held column: no later step can change its state or
// read a new input, so each one only advances t, exactly as a full step
// would, until the column stops.
func (col *column) replay(dt float64) {
	t, n := col.t, 0
	if col.onGrid {
		n = col.gridStepsToStop(dt)
		t += float64(n) * dt
	} else {
		for ; !col.stopsAt(t); t += dt {
			n++
		}
	}
	col.t, col.k, col.quiet, col.stopped = t, col.k+n, col.quiet+n, true
}

// gridStepsToStop returns, for a column on the exact grid whose state no
// longer changes, the smallest n >= 0 with stopsAt(t + n·dt). On the grid
// t + n·dt is exact, and so equal to the time n repeated additions of dt
// reach. The stop threshold is tEndMin if the state is settled and tMax
// otherwise, so n follows from one division; stopsAt is monotone in t, so
// checking n-1 and n corrects the division's rounding.
func (col *column) gridStepsToStop(dt float64) int {
	t, n := col.t, 0
	thr := col.tMax
	if col.isSettled() {
		thr = min(col.tEndMin, thr)
	}
	if r := (thr - t) / dt; r > 0 {
		n = int(math.Ceil(r))
	}
	for n > 0 && col.stopsAt(t+float64(n-1)*dt) {
		n--
	}
	for !col.stopsAt(t + float64(n)*dt) {
		n++
	}
	return n
}

// commit books a full step with input u and root right-hand side b0.
// moved reports whether any node changed a bit; if none did, the column
// freezes, and otherwise it records the step's load samples after writing
// out the quiet steps before them.
func (col *column) commit(moved bool, b0, u float64, loads []int) {
	if moved {
		col.frozen, col.held, col.settleKnown = false, false, false
		nl := len(loads)
		for ; col.quiet > 0; col.quiet-- {
			col.rec = append(col.rec, col.rec[len(col.rec)-nl:]...)
		}
		for _, node := range loads {
			col.rec = append(col.rec, col.V[node][col.slot])
		}
	} else {
		col.frozen, col.b0, col.u = true, b0, u
		col.quiet++
	}
	col.stop()
}

// track feeds the full step that led from prev to the current state to
// the trackers of the nodes with a threshold still to cross.
func (col *column) track(prev [][4]float64, tr [][4]tracker, dt float64) {
	c, V := col.slot&3, col.V
	prev, tr = prev[:len(V)], tr[:len(V)]
	for i := range V {
		k := &tr[i][c]
		if k.next == 3 {
			continue
		}
		k.observe(col.t, dt, col.sign*prev[i][c], col.sign*V[i][c], &col.th)
		if k.next == 3 {
			col.pending--
		}
	}
}

// stop ends the column if its step at col.t was its last.
func (col *column) stop() { col.stopped = col.stopsAt(col.t) }

// stopsAt reports whether a step ending at t is the column's last: it is
// past its minimum window and settled, or at its hard cap.
func (col *column) stopsAt(t float64) bool {
	return (t >= col.tEndMin && col.isSettled()) || t >= col.tMax
}

// isSettled reports whether every node of the column lies within tol of
// its final rail. Only stopsAt reads the flag, and only from tEndMin on;
// quiet steps leave the state as the last full step left it, so the flag
// computed on demand from the current state is the one that step would
// have computed.
func (col *column) isSettled() bool {
	if !col.settleKnown {
		c, V, railF, tol := col.slot&3, col.V, col.railF, col.tol
		s := abs(V[0][c]-railF) <= tol
		for i := 1; s && i < len(V); i++ {
			s = !(abs(V[i][c]-railF) > tol)
		}
		col.settled, col.settleKnown = s, true
	}
	return col.settled
}

// loadWaves unpacks the recorded rows into one waveform per load node.
// Each stores its samples up to its own last change; the rows that repeat
// it and the quiet steps after the last row form its tail.
func (col *column) loadWaves(loads []int, dt float64) map[int]*Waveform {
	nl := len(loads)
	waves := make(map[int]*Waveform, nl)
	if nl == 0 {
		return waves
	}
	rec := col.rec
	rows := len(rec) / nl
	ws := make([]Waveform, nl)
	for k, node := range loads {
		keep := rows
		for keep > 1 && math.Float64bits(rec[(keep-1)*nl+k]) == math.Float64bits(rec[(keep-2)*nl+k]) {
			keep--
		}
		v := make([]float64, keep)
		for i := range v {
			v[i] = rec[i*nl+k]
		}
		ws[k] = Waveform{T0: col.vin.T0, Dt: dt, V: v, Tail: rows - keep + col.quiet, V0: col.rail0}
		waves[node] = &ws[k]
	}
	return waves
}

// tracker records the interpolated times at which one node's sign-folded
// voltage first crosses its column's three thresholds, in order.
type tracker struct {
	next uint8      // index of the next threshold to cross (3 = all crossed)
	t    [3]float64 // crossing times of th[0..next)
}

// observe feeds one integration step (x at t, xPrev at t-dt) to the
// tracker. A step may cross several thresholds at once. For a waveform
// that starts below every threshold, the first upward crossing of th[k]
// never precedes that of th[k-1], so checking only the next threshold
// finds exactly the first crossing of each.
func (k *tracker) observe(t, dt, xPrev, x float64, th *[3]float64) {
	for i := k.next; i < 3; i++ {
		h := th[i]
		if !(x >= h && xPrev < h) {
			return
		}
		k.t[i] = t - dt + dt*(h-xPrev)/(x-xPrev)
		k.next = i + 1
	}
}

// simStage integrates one stage with Backward Euler for up to four columns
// at once: the source edges of one or two corners whose interconnect
// derates are equal (the caller groups them), so the conductances and the
// elimination factors are shared. Each column is a slot of the state
// vectors (V[i][c] for RC node i, column c) and keeps its own input,
// supply, driver, rails, time window and crossing trackers.
//
// The integration runs in up to three phases. While four columns run, one
// four-column sweep advances them in lockstep, so four divide-bound tree
// solves overlap in the pipeline. Once any column stops, a paired sweep
// advances the first two survivors until either stops, and the tail loop
// finishes every column still running, one at a time; with a single
// column the tail loop is the whole integration. A sweep whose columns
// are all held (below) ends early, since none has work left.
//
// A full step is the solve alone: it reduces the RC tree bottom-up to a
// Thevenin equivalent at the driver output, solves the driver equation by
// Newton, back-substitutes top-down and gathers the bits each column's
// nodes change. Most stage nodes hang from the node just before them
// (par[i] == i-1), so each sweep is a chain of dependent divides, and the
// solve carries the chain in registers: a node's contribution to such a
// parent is the last one added to the parent's accumulator, since
// children have larger indices and the reduction walks downward, so it is
// added from a register in the same order, and the back-substitution
// reuses the value just computed for node i-1. Only branch points go
// through memory. The crossing trackers run as a separate pass, and only
// while a column still has a node with a threshold to cross; the pass
// reads a copy of the state from before the step. The settle flag is read
// only from tEndMin on, and computed on demand then (column.isSettled).
// On the exact grid the input sample is read by step index (column.input).
//
// Most of a stage's window comes after its last threshold crossing, and
// there the state soon stops changing bit for bit. So each sweep first
// asks whether every column it runs is quiet (column.isQuiet): if so, it
// skips the solve, and the step costs O(1). Otherwise all its columns take
// a full step, and each column freezes or thaws by whether that step moved
// any of its nodes. A frozen column whose input returns the same sample at
// every later step is held: every step it has left is quiet, and the tail
// loop replays them as bare time increments, counted in closed form on
// the exact grid. Quiet steps add no samples: they lengthen the load
// waveforms' implicit tails.
//
// A column's floating-point operations and their order do not depend on
// the phase it runs in, on the other columns, or on which of its steps
// are skipped, so its results are bit-identical to a one-column call that
// takes every step in full. For an underated corner scaling by 1.0 is
// exact in IEEE 754, so the derates change nothing there.
func (e *Engine) simStage(s *analysis.Stage, in []stageIn) (out [4]stageResult) {
	n := len(s.R)
	w := len(in)
	dt := e.Dt
	rScale, cScale := in[0].corner.RScale(), in[0].corner.CScale()

	ss := stagePool.Get().(*stageScratch)
	ss.grow(n)
	// Every per-node slice is resliced to n so the compiler can prove the
	// node loops' indices in range.
	g, gC := ss.g[:n], ss.gC[:n]
	g[0] = 0 // never read, but keep the vector deterministic across reuse
	for i := 0; i < n; i++ {
		gC[i] = s.C[i] * cScale / dt
		if i > 0 {
			g[i] = 1 / (s.R[i] * rScale)
		}
	}
	// Constant elimination factors (caps and resistances are fixed). The
	// += accumulation below must start from exact zeros.
	d, elim := ss.d[:n], ss.elim[:n]
	for i := range elim {
		elim[i] = 0
	}
	par := s.Par[:n]
	for i := n - 1; i >= 1; i-- {
		d[i] = gC[i] + g[i] + elim[i]
		elim[par[i]] += g[i] - g[i]*g[i]/d[i]
	}
	d[0] = gC[0] + elim[0]
	if d[0] <= 0 {
		d[0] = 1e-12
	}

	// The distinct load nodes, recorded for every column.
	loads := ss.loads[:0]
	for _, ld := range s.Loads {
		if !slices.Contains(loads, ld.Node) {
			loads = append(loads, ld.Node)
		}
	}
	ss.loads = loads

	// Per-column set-up. The reduction accumulator starts at zero and
	// every step leaves it at zero again, so it never holds -0: adding a
	// carried +0 to it changes no bit.
	V, prev, b, acc, tr := ss.V[:n], ss.prev[:n], ss.b[:n], ss.acc[:n], ss.tr[:n]
	var cols [4]column
	tauMax := 0.0
	for c, ci := range in {
		// Window: input transition plus several stage time constants, with
		// a hard cap to stay live under degenerate drivers. Both edges of
		// a corner share the corner's time constant.
		if c == 0 || ci.rd != in[c-1].rd || ci.corner != in[c-1].corner {
			tauMax = 1.0
			if m := analysis.StageElmoreMaxAt(s, ci.rd, ci.corner); m > tauMax {
				tauMax = m
			}
		}
		vdd := ci.corner.Vdd
		col := &cols[c]
		rail0, railF := vdd, 0.0
		// Crossing thresholds at 10%, 50% and 90% of vdd in the output
		// direction: a falling output crosses 90% first, so its folded
		// thresholds are the negated levels in reverse order.
		col.sign, col.th = -1, [3]float64{-(0.9 * vdd), -(0.5 * vdd), -(0.1 * vdd)}
		if ci.outRising {
			rail0, railF = 0.0, vdd
			col.sign, col.th = 1, [3]float64{0.1 * vdd, 0.5 * vdd, 0.9 * vdd}
		}
		for i := 0; i < n; i++ {
			V[i][c] = rail0
			acc[i][c] = 0
			tr[i][c] = tracker{}
		}
		tEndMin := ci.vin.End() + 5*tauMax + 50
		col.vin, col.drv, col.vdd, col.tol = ci.vin, ci.drv, vdd, e.SettleTol*vdd
		col.rail0, col.railF = rail0, railF
		col.t, col.tEndMin, col.tMax = ci.vin.T0, tEndMin, tEndMin+30*tauMax+2000
		col.onGrid = ci.vin.Dt == dt && exactGrid(col.t, dt, col.tMax)
		col.V, col.slot, col.pending = V, c, n
		// Row 0: every load starts at the initial rail.
		rec := ss.rec[c][:0]
		for range loads {
			rec = append(rec, rail0)
		}
		col.rec = rec
	}

	if w == 4 {
		// Four-column sweep: all columns step together until any stops or
		// all are held.
		c0, c1, c2, c3 := &cols[0], &cols[1], &cols[2], &cols[3]
		for !(c0.stopped || c1.stopped || c2.stopped || c3.stopped) {
			c0.advance(dt)
			c1.advance(dt)
			c2.advance(dt)
			c3.advance(dt)
			if c0.isQuiet(d[0]) && c1.isQuiet(d[0]) && c2.isQuiet(d[0]) && c3.isQuiet(d[0]) {
				c0.skip()
				c1.skip()
				c2.skip()
				c3.skip()
				if c0.held && c1.held && c2.held && c3.held {
					break // nothing left to integrate: the tail replays each column
				}
				continue
			}
			tracking := c0.pending|c1.pending|c2.pending|c3.pending != 0
			if tracking {
				copy(prev, V)
			}
			// Bottom-up: reduce to the root. x0..x3 carry node i's
			// contribution while its parent is i-1.
			var x0, x1, x2, x3 float64
			for i := n - 1; i >= 1; i-- {
				gi, di, gCi := g[i], d[i], gC[i]
				vj, aj := &V[i], &acc[i]
				b0 := gCi*vj[0] + (aj[0] + x0)
				b1 := gCi*vj[1] + (aj[1] + x1)
				b2 := gCi*vj[2] + (aj[2] + x2)
				b3 := gCi*vj[3] + (aj[3] + x3)
				b[i] = [4]float64{b0, b1, b2, b3}
				*aj = [4]float64{}
				x0, x1, x2, x3 = gi*b0/di, gi*b1/di, gi*b2/di, gi*b3/di
				if p := par[i]; p != i-1 {
					ap := &acc[p]
					ap[0] += x0
					ap[1] += x1
					ap[2] += x2
					ap[3] += x3
					x0, x1, x2, x3 = 0, 0, 0, 0
				}
			}
			v, a := &V[0], &acc[0]
			b0 := gC[0]*v[0] + (a[0] + x0)
			b1 := gC[0]*v[1] + (a[1] + x1)
			b2 := gC[0]*v[2] + (a[2] + x2)
			b3 := gC[0]*v[3] + (a[3] + x3)
			*a = [4]float64{}
			in0, in1, in2, in3 := c0.input(), c1.input(), c2.input(), c3.input()
			u0 := solveRoot(&c0.drv, in0, d[0], b0, v[0], c0.vdd)
			u1 := solveRoot(&c1.drv, in1, d[0], b1, v[1], c1.vdd)
			u2 := solveRoot(&c2.drv, in2, d[0], b2, v[2], c2.vdd)
			u3 := solveRoot(&c3.drv, in3, d[0], b3, v[3], c3.vdd)
			// Top-down back-substitution. u0..u3 hold node i-1's new
			// voltages; m0..m3 gather the bits each column's nodes change.
			m0 := math.Float64bits(u0) ^ math.Float64bits(v[0])
			m1 := math.Float64bits(u1) ^ math.Float64bits(v[1])
			m2 := math.Float64bits(u2) ^ math.Float64bits(v[2])
			m3 := math.Float64bits(u3) ^ math.Float64bits(v[3])
			*v = [4]float64{u0, u1, u2, u3}
			for i := 1; i < n; i++ {
				gi, di := g[i], d[i]
				if p := par[i]; p != i-1 {
					vp := &V[p]
					u0, u1, u2, u3 = vp[0], vp[1], vp[2], vp[3]
				}
				vj, bj := &V[i], &b[i]
				u0 = (bj[0] + gi*u0) / di
				u1 = (bj[1] + gi*u1) / di
				u2 = (bj[2] + gi*u2) / di
				u3 = (bj[3] + gi*u3) / di
				m0 |= math.Float64bits(u0) ^ math.Float64bits(vj[0])
				m1 |= math.Float64bits(u1) ^ math.Float64bits(vj[1])
				m2 |= math.Float64bits(u2) ^ math.Float64bits(vj[2])
				m3 |= math.Float64bits(u3) ^ math.Float64bits(vj[3])
				*vj = [4]float64{u0, u1, u2, u3}
			}
			if tracking {
				for _, col := range [4]*column{c0, c1, c2, c3} {
					if col.pending > 0 {
						col.track(prev, tr, dt)
					}
				}
			}
			c0.commit(m0 != 0, b0, in0, loads)
			c1.commit(m1 != 0, b1, in1, loads)
			c2.commit(m2 != 0, b2, in2, loads)
			c3.commit(m3 != 0, b3, in3, loads)
		}
	}

	// Paired sweep: the first two columns still running step together
	// until either stops or both are held.
	pa, pb := -1, -1
	for c := 0; c < w && pb < 0; c++ {
		switch {
		case cols[c].stopped:
		case pa < 0:
			pa = c
		default:
			pb = c
		}
	}
	if pb >= 0 {
		pa, pb := pa&3, pb&3 // in range already; the mask lets the compiler drop slot bounds checks
		c0, c1 := &cols[pa], &cols[pb]
		for !(c0.stopped || c1.stopped) {
			c0.advance(dt)
			c1.advance(dt)
			if c0.isQuiet(d[0]) && c1.isQuiet(d[0]) {
				c0.skip()
				c1.skip()
				if c0.held && c1.held {
					break
				}
				continue
			}
			tracking := c0.pending|c1.pending != 0
			if tracking {
				copy(prev, V)
			}
			var x0, x1 float64
			for i := n - 1; i >= 1; i-- {
				gi, di, gCi := g[i], d[i], gC[i]
				vj, aj := &V[i], &acc[i]
				b0 := gCi*vj[pa] + (aj[pa] + x0)
				b1 := gCi*vj[pb] + (aj[pb] + x1)
				b[i][pa], b[i][pb] = b0, b1
				aj[pa], aj[pb] = 0, 0
				x0, x1 = gi*b0/di, gi*b1/di
				if p := par[i]; p != i-1 {
					ap := &acc[p]
					ap[pa] += x0
					ap[pb] += x1
					x0, x1 = 0, 0
				}
			}
			v, a := &V[0], &acc[0]
			b0 := gC[0]*v[pa] + (a[pa] + x0)
			b1 := gC[0]*v[pb] + (a[pb] + x1)
			a[pa], a[pb] = 0, 0
			in0, in1 := c0.input(), c1.input()
			u0 := solveRoot(&c0.drv, in0, d[0], b0, v[pa], c0.vdd)
			u1 := solveRoot(&c1.drv, in1, d[0], b1, v[pb], c1.vdd)
			m0 := math.Float64bits(u0) ^ math.Float64bits(v[pa])
			m1 := math.Float64bits(u1) ^ math.Float64bits(v[pb])
			v[pa], v[pb] = u0, u1
			for i := 1; i < n; i++ {
				gi, di := g[i], d[i]
				if p := par[i]; p != i-1 {
					vp := &V[p]
					u0, u1 = vp[pa], vp[pb]
				}
				vj, bj := &V[i], &b[i]
				u0 = (bj[pa] + gi*u0) / di
				u1 = (bj[pb] + gi*u1) / di
				m0 |= math.Float64bits(u0) ^ math.Float64bits(vj[pa])
				m1 |= math.Float64bits(u1) ^ math.Float64bits(vj[pb])
				vj[pa], vj[pb] = u0, u1
			}
			if tracking {
				for _, col := range [2]*column{c0, c1} {
					if col.pending > 0 {
						col.track(prev, tr, dt)
					}
				}
			}
			c0.commit(m0 != 0, b0, in0, loads)
			c1.commit(m1 != 0, b1, in1, loads)
		}
	}

	// Tail: finish every column still running, one at a time.
	for c := 0; c < w; c++ {
		c := c & 3 // as in the paired sweep
		col := &cols[c]
		for !col.stopped {
			col.advance(dt)
			if col.isQuiet(d[0]) {
				col.skip()
				if col.held {
					col.replay(dt)
				}
				continue
			}
			tracking := col.pending > 0
			if tracking {
				copy(prev, V)
			}
			x := 0.0
			for i := n - 1; i >= 1; i-- {
				bi := gC[i]*V[i][c] + (acc[i][c] + x)
				b[i][c] = bi
				acc[i][c] = 0
				x = g[i] * bi / d[i]
				if p := par[i]; p != i-1 {
					acc[p][c] += x
					x = 0
				}
			}
			b0 := gC[0]*V[0][c] + (acc[0][c] + x)
			acc[0][c] = 0
			in := col.input()
			u := solveRoot(&col.drv, in, d[0], b0, V[0][c], col.vdd)
			m := math.Float64bits(u) ^ math.Float64bits(V[0][c])
			V[0][c] = u
			for i := 1; i < n; i++ {
				if p := par[i]; p != i-1 {
					u = V[p][c]
				}
				u = (b[i][c] + g[i]*u) / d[i]
				m |= math.Float64bits(u) ^ math.Float64bits(V[i][c])
				V[i][c] = u
			}
			if tracking {
				col.track(prev, tr, dt)
			}
			col.commit(m != 0, b0, in, loads)
		}
	}

	for c := 0; c < w; c++ {
		r := &out[c]
		r.t50 = make([]float64, n)
		r.slew = make([]float64, n)
		for i := 0; i < n; i++ {
			k := &tr[i][c]
			r.t50[i] = math.Inf(1)
			if k.next > 1 {
				r.t50[i] = k.t[1]
			}
			r.slew[i] = math.Inf(1)
			if k.next == 3 {
				r.slew[i] = abs(k.t[2] - k.t[0])
			}
		}
		r.loadWaves = cols[c].loadWaves(loads, dt)
		ss.rec[c] = cols[c].rec[:0] // keep any growth for the next call
	}
	stagePool.Put(ss)
	return out
}
