package spice

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
	// ahead is the number of steps the column takes before it suspends,
	// at least: how far the stage's children read its previous transient.
	ahead int
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
	// vin is the column's own view of its input: the samples computed so
	// far while the input's producer is unfinished (vin.feed non-nil), and
	// the final waveform once it has stopped.
	vin           Waveform
	drv           driver
	vdd, tol      float64
	rail0, railF  float64
	sign          float64
	th            [3]float64
	tau           float64 // the stage time constant the window is sized by
	dt            float64 // the step
	t0, t         float64 // the first sample's time (vin.T0) and the step time
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

	// rec holds the recorded load samples load by load: load l's samples,
	// starting with the initial rail, fill the first rows entries of
	// rec[l*stride:(l+1)*stride]. quiet counts the steps since the last
	// recorded row; each of them repeated it. A row is written in place,
	// so readers of the rows before it never race with the writer.
	rec          []float64
	stride, rows int
	quiet        int

	// frozen: the last full step left every node of the column
	// bit-unchanged. b0 is the root's right-hand side in that state and u
	// an input under which the state repeats itself. held: frozen, and vin
	// returns u at every later step.
	frozen, held bool
	b0, u        float64

	// settled is the settle flag of the current state, valid while
	// settleKnown; a full step that moves a node invalidates it.
	settled, settleKnown, stopped bool

	// leaf: the stage has no loads, so nothing reads the column's steps
	// and its results are final once every node has crossed.
	leaf bool

	// halt: the column takes no further step in this sweep. It has
	// stopped, or every node has crossed and it has reached step goal,
	// past which nothing has asked for its load samples yet.
	halt bool
	goal int
}

// advance moves the column to its next step time.
func (col *column) advance(dt float64) {
	col.t += dt
	col.k++
}

// window sets the column's stop window and grid mode from its input. Both
// follow from the input's end, so they wait for the input's producer to
// finish. Until then the column cannot stop: it reads its input at its own
// step time, so the final input end, and with it tEndMin, lies past t. And
// it reads the input by step index only while the grid stays exact up to
// the samples computed so far.
func (col *column) window(dt float64) {
	w := &col.vin
	if w.feed != nil {
		col.tEndMin, col.tMax = math.Inf(1), math.Inf(1)
		col.onGrid = w.Dt == dt && exactGrid(col.t0, dt, col.t0+float64(w.known())*dt)
		return
	}
	// Input transition plus several stage time constants, with a hard cap
	// to stay live under degenerate drivers.
	col.tEndMin = w.End() + 5*col.tau + 50
	col.tMax = col.tEndMin + 30*col.tau + 2000
	col.onGrid = w.Dt == dt && exactGrid(col.t0, dt, col.tMax)
}

// refresh pulls the column's input until it covers m samples or its
// producer finishes, and updates the window.
func (col *column) refresh(m int) {
	col.vin = col.vin.pull(m)
	col.window(col.dt)
}

// input returns vin at the column's step time. On the exact grid that
// time is T0 + k·Dt, so At's index is k and its interpolation weight f is
// exactly 0; the interpolation is kept, with f = 0, so that -0, Inf and
// NaN samples give what At gives. Off the grid it is At. A read past the
// samples computed so far pulls the input first.
func (col *column) input() float64 {
	w := &col.vin
	if !col.onGrid || len(w.V) == 0 {
		if m := w.atNeeds(col.t); w.feed != nil && w.known() < m {
			col.refresh(m)
		}
		return w.at(col.t)
	}
	k, last := col.k, len(w.V)-1
	if k >= last+w.Tail {
		if w.feed != nil {
			col.refresh(k + 2)
			return col.input()
		}
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
// flag hold, and the load samples repeat the last one.
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
	col.t, col.k, col.quiet, col.stopped, col.halt = t, col.k+n, col.quiet+n, true, true
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
		if len(loads) > 0 {
			rows := col.rows + col.quiet + 1
			if rows > col.stride {
				col.growRec(rows, len(loads))
			}
			for l, node := range loads {
				seg := col.rec[l*col.stride : l*col.stride+rows]
				for i := col.rows; i < rows-1; i++ {
					seg[i] = seg[col.rows-1]
				}
				seg[rows-1] = col.V[node][col.slot]
			}
			col.rows = rows
		}
		col.quiet = 0
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

// stop ends the column if its step at col.t was its last: the eager stop
// rule, or the last crossing of a leaf stage's column. It halts the
// column too once every node has crossed and the step reached goal.
func (col *column) stop() {
	col.stopped = col.stopsAt(col.t) || (col.leaf && col.pending == 0)
	col.halt = col.stopped || (col.pending == 0 && col.k >= col.goal)
}

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

// growRec makes room for rows rows of nl loads, keeping the rows
// recorded so far. The old buffer is left to the readers that still hold
// views of it.
func (col *column) growRec(rows, nl int) {
	stride := max(2*col.stride, rows, 2*extendChunk)
	rec := make([]float64, nl*stride)
	for l := 0; l < nl; l++ {
		copy(rec[l*stride:], col.rec[l*col.stride:l*col.stride+col.rows])
	}
	col.rec, col.stride = rec, stride
}

// recorded returns load l's recorded rows.
func (col *column) recorded(l int) []float64 {
	i := l * col.stride
	return col.rec[i : i+col.rows : i+col.rows]
}

// finalWave returns a stopped column's load waveform l: a copy of the
// recorded rows up to the last change, so that the recording and its
// spare rows can go, and the rows that repeat it plus the quiet steps
// after the last row as its tail.
func (col *column) finalWave(l int, dt float64) Waveform {
	v := col.recorded(l)
	keep := len(v)
	for keep > 1 && math.Float64bits(v[keep-1]) == math.Float64bits(v[keep-2]) {
		keep--
	}
	return Waveform{T0: col.t0, Dt: dt, V: slices.Clone(v[:keep]), Tail: len(v) - keep + col.quiet, V0: col.rail0}
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
// A column integrates only as far as something reads it. Its t50 and slew
// are final once every node has crossed all three thresholds. A leaf
// stage, one without loads, then stops. A stage with loads suspends there,
// or after stageIn.ahead steps if that is later: once every column has
// crossed and taken its ahead steps, or has stopped, simStage returns with
// the unfinished columns kept in a stageRun. Their load waveforms are
// unfinished views that extend the run when a child stage reads past the
// samples computed so far (stageRun.extend). A column's input may itself
// be such a view; the column pulls it as it steps. The caller sets ahead
// to about as far as the stage's children read its previous transient, so
// that the stage mostly computes what they will read before they start,
// rather than in small pulls from every child at once.
//
// The steps run in up to three phases (stageKernel.sweep). While four
// columns run, one four-column sweep advances them in lockstep, so four
// divide-bound tree solves overlap in the pipeline. Once any column halts,
// a paired sweep advances the first two survivors until either halts, and
// the tail loop finishes every column still running, one at a time; with a
// single column the tail loop is the whole integration. A sweep whose
// columns are all held (below) ends early, since none has work left.
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
// Past its last crossing a column's state soon stops changing bit for bit.
// So each sweep first asks whether every column it runs is quiet
// (column.isQuiet): if so, it skips the solve, and the step costs O(1).
// Otherwise all its columns take a full step, and each column freezes or
// thaws by whether that step moved any of its nodes. A frozen column whose
// input returns the same sample at every later step is held: every step it
// has left is quiet, and the tail loop replays them as bare time
// increments, counted in closed form on the exact grid. Quiet steps add no
// samples: they lengthen the load waveforms' implicit tails.
//
// A column's floating-point operations and their order do not depend on
// the phase it runs in, on the other columns, on which of its steps are
// skipped or on when they are taken, so its results, and every sample of
// its load waveforms, are bit-identical to a one-column call that takes
// every step in full up to the eager stop. For an underated corner scaling
// by 1.0 is exact in IEEE 754, so the derates change nothing there.
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
	k := stageKernel{g: g, gC: gC, d: d, par: par, V: ss.V[:n], prev: ss.prev[:n], b: ss.b[:n], acc: ss.acc[:n], tr: ss.tr[:n], loads: loads, dt: dt}
	V, acc, tr := k.V, k.acc, k.tr
	var cols [4]column
	tauMax := 0.0
	for c, ci := range in {
		// The window covers the input transition plus several stage time
		// constants (column.window). Both edges of a corner share the
		// corner's time constant.
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
		col.vin = ci.vin.pull(2)
		col.drv, col.vdd, col.tol = ci.drv, vdd, e.SettleTol*vdd
		col.rail0, col.railF = rail0, railF
		col.tau, col.dt = tauMax, dt
		col.t0, col.t = col.vin.T0, col.vin.T0
		col.window(dt)
		col.V, col.slot, col.pending = V, c, n
		col.leaf = len(loads) == 0
		col.goal = ci.ahead
		// Every load starts at the initial rail. The recording is sized
		// for the steps the column is expected to take, so that it rarely
		// grows; a suspended column keeps it.
		if nl := len(loads); nl > 0 {
			col.stride = ci.ahead + ci.ahead/8 + 2*extendChunk
			col.rec = make([]float64, nl*col.stride)
			for l := 0; l < nl; l++ {
				col.rec[l*col.stride] = rail0
			}
			col.rows = 1
		}
	}

	k.sweep(&cols, w)

	var run *stageRun
	for c := 0; c < w; c++ {
		if !cols[c].stopped {
			run = newStageRun(&k, &cols, w)
			break
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
		r.loadWaves = make(map[int]*Waveform, len(loads))
		if len(loads) == 0 {
			continue
		}
		ws := make([]Waveform, len(loads))
		col := &cols[c]
		for l, node := range loads {
			if col.stopped {
				ws[l] = col.finalWave(l, dt)
			} else {
				ws[l] = Waveform{T0: col.t0, Dt: dt, V0: col.rail0, feed: &run.feeds[c][l]}
			}
			r.loadWaves[node] = &ws[l]
		}
	}
	stagePool.Put(ss)
	return out
}

// stageKernel is what a transient's steps work on: the per-node
// conductances g, capacitive conductances gC and elimination factors d,
// the tree (par), the state V of up to four columns, the per-step scratch
// (prev, b, acc, tr) and the distinct load nodes.
type stageKernel struct {
	g, gC, d        []float64
	par             []int
	V, prev, b, acc [][4]float64
	tr              [][4]tracker
	loads           []int
	dt              float64
}

// stepCounter, when set, receives the number of full column-steps each
// sweep takes. Tests set it to measure how much integration a change
// saves.
var stepCounter *atomic.Int64

// sweep advances the first w columns until each halts, in the phases
// simStage describes.
func (k *stageKernel) sweep(cols *[4]column, w int) {
	n, dt := len(k.V), k.dt
	g, gC, d, par := k.g[:n], k.gC[:n], k.d[:n], k.par[:n]
	V, prev, b, acc, tr := k.V[:n], k.prev[:n], k.b[:n], k.acc[:n], k.tr[:n]
	loads := k.loads
	full := 0 // full column-steps taken

	if w == 4 {
		// Four-column sweep: all columns step together until any halts or
		// all are held.
		c0, c1, c2, c3 := &cols[0], &cols[1], &cols[2], &cols[3]
		for !(c0.halt || c1.halt || c2.halt || c3.halt) {
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
			full += 4
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
	// until either halts or both are held.
	pa, pb := -1, -1
	for c := 0; c < w && pb < 0; c++ {
		switch {
		case cols[c].halt:
		case pa < 0:
			pa = c
		default:
			pb = c
		}
	}
	if pb >= 0 {
		pa, pb := pa&3, pb&3 // in range already; the mask lets the compiler drop slot bounds checks
		c0, c1 := &cols[pa], &cols[pb]
		for !(c0.halt || c1.halt) {
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
			full += 2
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
		for !col.halt {
			col.advance(dt)
			if col.isQuiet(d[0]) {
				col.skip()
				if col.held {
					col.replay(dt)
				}
				continue
			}
			full++
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
	if sc := stepCounter; sc != nil {
		sc.Add(int64(full))
	}
}

// extent returns the steps the column of a transient that r belongs to
// has taken: as far as its children have read it so far, or to its stop.
// A result without load waveforms has never been read.
func (r *stageResult) extent() int {
	for _, w := range r.loadWaves {
		if fin, ok := w.final(); ok {
			return fin.known() - 1
		}
		run := w.feed.run
		run.mu.Lock()
		k := run.cols[w.feed.c].k
		run.mu.Unlock()
		return k
	}
	return 0
}

// extendChunk is the fewest steps an extension advances the column asked
// for, so that a child stage reading its input one sample at a time pulls
// its parent once per chunk rather than once per step.
const extendChunk = 16

// allSamples asks pull for every sample: the producer runs to its stop.
const allSamples = math.MaxInt / 4

// stageRun is a suspended stage transient: what the steps of its
// unfinished columns need, which is the conductances and elimination
// factors, a copy of the tree, the state V and the column structs with
// their recorded load samples, plus one feed per load of each unfinished
// column. It is kept until every column has stopped and then releases
// everything but the feeds' final waveforms. The per-step scratch goes
// back to the pool at suspension, since the reduction accumulators are
// zero between steps and the right-hand sides are rebuilt every step, and
// so do the trackers, since an unfinished column has no threshold left to
// cross. mu guards the columns and the feeds' progress.
type stageRun struct {
	mu       sync.Mutex
	g, gC, d []float64
	par      []int
	V        [][4]float64
	loads    []int
	dt       float64
	cols     [4]column
	w        int
	feeds    [4][]feed
}

// feed is one load waveform of one unfinished column of a stageRun. fin is
// its final form, valid once done is set.
type feed struct {
	run  *stageRun
	c, l int
	done atomic.Bool
	fin  Waveform
}

// newStageRun suspends the unfinished columns of a sweep: it copies what
// their steps need out of the scratch and the extracted stage, both of
// which are recycled, and makes their feeds. The recordings move over.
func newStageRun(k *stageKernel, cols *[4]column, w int) *stageRun {
	n := len(k.V)
	gcd := make([]float64, 3*n)
	r := &stageRun{
		g:     gcd[:n:n],
		gC:    gcd[n : 2*n : 2*n],
		d:     gcd[2*n:],
		par:   slices.Clone(k.par),
		V:     slices.Clone(k.V),
		loads: slices.Clone(k.loads),
		dt:    k.dt,
		cols:  *cols,
		w:     w,
	}
	copy(r.g, k.g)
	copy(r.gC, k.gC)
	copy(r.d, k.d)
	for c := 0; c < w; c++ {
		col := &r.cols[c]
		col.V = r.V
		nl := len(k.loads)
		if col.stopped || nl == 0 {
			col.rec = nil // simStage returns its final waveforms
			continue
		}
		r.feeds[c] = make([]feed, nl)
		for l := range r.feeds[c] {
			r.feeds[c][l] = feed{run: r, c: c, l: l}
		}
	}
	return r
}

// extend advances the run until column c has computed at least m samples
// of each load, or has stopped. It advances every unfinished column of
// the run by the same number of steps, at least extendChunk: the children
// reading the other columns read them at about the same times, and
// columns in lockstep share the four-column sweep. Steps past a column's
// eager stop are never taken. It runs in the caller's
// integration slot, and its columns may pull their own inputs, locking the
// runs upstream: locks are always taken from child to parent, so they
// cannot cycle. The caller holds r.mu.
func (r *stageRun) extend(c, m int) {
	col := &r.cols[c]
	if col.stopped || col.k+1 >= m {
		return
	}
	steps := max(m-1-col.k, extendChunk)
	for o := 0; o < r.w; o++ {
		if oc := &r.cols[o]; !oc.stopped {
			oc.goal, oc.halt = oc.k+steps, false
		}
	}

	n := len(r.V)
	ss := stagePool.Get().(*stageScratch)
	ss.grow(n)
	clear(ss.acc)
	k := stageKernel{g: r.g, gC: r.gC, d: r.d, par: r.par, V: r.V, prev: ss.prev, b: ss.b, acc: ss.acc, tr: ss.tr, loads: r.loads, dt: r.dt}
	k.sweep(&r.cols, r.w)
	stagePool.Put(ss)

	open := false
	for o := 0; o < r.w; o++ {
		oc := &r.cols[o]
		if !oc.stopped {
			open = true
			continue
		}
		if oc.rec == nil {
			continue // finished earlier
		}
		for l := range r.feeds[o] {
			f := &r.feeds[o][l]
			f.fin = oc.finalWave(l, r.dt)
			f.done.Store(true)
		}
		oc.rec = nil
	}
	if !open {
		// Every column has stopped: keep only the feeds' final waveforms.
		r.g, r.gC, r.d, r.par, r.V = nil, nil, nil, nil, nil
		for o := range r.cols {
			r.cols[o].vin, r.cols[o].V = Waveform{}, nil
		}
	}
}
