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
	// onGrid: every step time lies exactly on vin's sample grid (exactGrid).
	onGrid bool

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

	settled, stopped bool
}

// isQuiet reports whether the column's step at col.t provably leaves its
// state unchanged. A step is a pure function of the state and the input
// sample: it reduces the tree to the root's right-hand side, solves the
// root and back-substitutes. In a frozen column the input u is known to
// repeat the state; any other input does too if the root solve from the
// cached right-hand side returns the root's voltage bit for bit, since the
// back-substitution then repeats the freezing step's. The input is read
// only until it is held.
func (col *column) isQuiet(d0, v0 float64) bool {
	if !col.frozen {
		return false
	}
	if col.held {
		return true
	}
	u := col.vin.At(col.t)
	if math.Float64bits(u) != math.Float64bits(col.u) {
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
	for !col.stopsAt(t) {
		t += dt
		n++
	}
	col.t, col.quiet, col.stopped = t, col.quiet+n, true
}

// commit books a full step of column c with input u and root right-hand
// side b0. moved reports whether any node changed a bit; if none did, the
// column freezes, and otherwise it records the step's load samples after
// writing out the quiet steps before them.
func (col *column) commit(c int, moved, settled bool, b0, u float64, V [][4]float64, loads []int) {
	col.settled = settled
	if moved {
		col.frozen, col.held = false, false
		nl := len(loads)
		for ; col.quiet > 0; col.quiet-- {
			col.rec = append(col.rec, col.rec[len(col.rec)-nl:]...)
		}
		for _, node := range loads {
			col.rec = append(col.rec, V[node][c])
		}
	} else {
		col.frozen, col.b0, col.u = true, b0, u
		col.quiet++
	}
	col.stop()
}

// stop ends the column if its step at col.t was its last.
func (col *column) stop() { col.stopped = col.stopsAt(col.t) }

// stopsAt reports whether a step ending at t is the column's last: it is
// past its minimum window and settled, or at its hard cap.
func (col *column) stopsAt(t float64) bool {
	return (t >= col.tEndMin && col.settled) || t >= col.tMax
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
// A full step reduces the RC tree bottom-up to a Thevenin equivalent at
// the driver output, solves the driver equation by Newton and
// back-substitutes top-down. Most of a stage's window comes after its
// last threshold crossing, and there the state soon stops changing bit
// for bit. So each sweep first asks whether every column it runs is quiet
// (column.isQuiet): if so, it skips the node loops, and the step costs
// O(1). Otherwise all its columns take a full step, and each column
// freezes or thaws by whether that step moved any of its nodes. A frozen
// column whose input returns the same sample at every later step is held:
// every step it has left is quiet, and the tail loop replays them as bare
// time increments. Quiet steps add no samples: they lengthen the load
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
	// every step leaves it at zero again.
	V, b, acc, tr := ss.V[:n], ss.b[:n], ss.acc[:n], ss.tr[:n]
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
		s0, s1, s2, s3 := c0.sign, c1.sign, c2.sign, c3.sign
		r0, r1, r2, r3 := c0.railF, c1.railF, c2.railF, c3.railF
		tol0, tol1, tol2, tol3 := c0.tol, c1.tol, c2.tol, c3.tol
		for !(c0.stopped || c1.stopped || c2.stopped || c3.stopped) {
			c0.t += dt
			c1.t += dt
			c2.t += dt
			c3.t += dt
			v, a := &V[0], &acc[0]
			if c0.isQuiet(d[0], v[0]) && c1.isQuiet(d[0], v[1]) && c2.isQuiet(d[0], v[2]) && c3.isQuiet(d[0], v[3]) {
				c0.skip()
				c1.skip()
				c2.skip()
				c3.skip()
				if c0.held && c1.held && c2.held && c3.held {
					break // nothing left to integrate: the tail replays each column
				}
				continue
			}
			t0, t1, t2, t3 := c0.t, c1.t, c2.t, c3.t
			// Bottom-up: reduce to the root.
			for i := n - 1; i >= 1; i-- {
				gi, di, gCi := g[i], d[i], gC[i]
				vj, aj, ap := &V[i], &acc[i], &acc[par[i]]
				b0 := gCi*vj[0] + aj[0]
				b1 := gCi*vj[1] + aj[1]
				b2 := gCi*vj[2] + aj[2]
				b3 := gCi*vj[3] + aj[3]
				b[i] = [4]float64{b0, b1, b2, b3}
				*aj = [4]float64{}
				ap[0] += gi * b0 / di
				ap[1] += gi * b1 / di
				ap[2] += gi * b2 / di
				ap[3] += gi * b3 / di
			}
			b0 := gC[0]*v[0] + a[0]
			b1 := gC[0]*v[1] + a[1]
			b2 := gC[0]*v[2] + a[2]
			b3 := gC[0]*v[3] + a[3]
			*a = [4]float64{}
			in0, in1, in2, in3 := c0.vin.At(t0), c1.vin.At(t1), c2.vin.At(t2), c3.vin.At(t3)
			v0 := solveRoot(&c0.drv, in0, d[0], b0, v[0], c0.vdd)
			v1 := solveRoot(&c1.drv, in1, d[0], b1, v[1], c1.vdd)
			v2 := solveRoot(&c2.drv, in2, d[0], b2, v[2], c2.vdd)
			v3 := solveRoot(&c3.drv, in3, d[0], b3, v[3], c3.vdd)
			// Top-down back-substitution, updating trackers inline. m0..m3
			// gather the bits each column's nodes change.
			k := &tr[0]
			k[0].observe(t0, dt, s0*v[0], s0*v0, &c0.th)
			k[1].observe(t1, dt, s1*v[1], s1*v1, &c1.th)
			k[2].observe(t2, dt, s2*v[2], s2*v2, &c2.th)
			k[3].observe(t3, dt, s3*v[3], s3*v3, &c3.th)
			m0 := math.Float64bits(v0) ^ math.Float64bits(v[0])
			m1 := math.Float64bits(v1) ^ math.Float64bits(v[1])
			m2 := math.Float64bits(v2) ^ math.Float64bits(v[2])
			m3 := math.Float64bits(v3) ^ math.Float64bits(v[3])
			*v = [4]float64{v0, v1, v2, v3}
			settled0 := abs(v0-r0) <= tol0
			settled1 := abs(v1-r1) <= tol1
			settled2 := abs(v2-r2) <= tol2
			settled3 := abs(v3-r3) <= tol3
			for i := 1; i < n; i++ {
				gi, di := g[i], d[i]
				vj, vp, bj, kj := &V[i], &V[par[i]], &b[i], &tr[i]
				u0 := (bj[0] + gi*vp[0]) / di
				u1 := (bj[1] + gi*vp[1]) / di
				u2 := (bj[2] + gi*vp[2]) / di
				u3 := (bj[3] + gi*vp[3]) / di
				kj[0].observe(t0, dt, s0*vj[0], s0*u0, &c0.th)
				kj[1].observe(t1, dt, s1*vj[1], s1*u1, &c1.th)
				kj[2].observe(t2, dt, s2*vj[2], s2*u2, &c2.th)
				kj[3].observe(t3, dt, s3*vj[3], s3*u3, &c3.th)
				m0 |= math.Float64bits(u0) ^ math.Float64bits(vj[0])
				m1 |= math.Float64bits(u1) ^ math.Float64bits(vj[1])
				m2 |= math.Float64bits(u2) ^ math.Float64bits(vj[2])
				m3 |= math.Float64bits(u3) ^ math.Float64bits(vj[3])
				*vj = [4]float64{u0, u1, u2, u3}
				if abs(u0-r0) > tol0 {
					settled0 = false
				}
				if abs(u1-r1) > tol1 {
					settled1 = false
				}
				if abs(u2-r2) > tol2 {
					settled2 = false
				}
				if abs(u3-r3) > tol3 {
					settled3 = false
				}
			}
			c0.commit(0, m0 != 0, settled0, b0, in0, V, loads)
			c1.commit(1, m1 != 0, settled1, b1, in1, V, loads)
			c2.commit(2, m2 != 0, settled2, b2, in2, V, loads)
			c3.commit(3, m3 != 0, settled3, b3, in3, V, loads)
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
		s0, s1 := c0.sign, c1.sign
		r0, r1 := c0.railF, c1.railF
		tol0, tol1 := c0.tol, c1.tol
		for !(c0.stopped || c1.stopped) {
			c0.t += dt
			c1.t += dt
			v, a := &V[0], &acc[0]
			if c0.isQuiet(d[0], v[pa]) && c1.isQuiet(d[0], v[pb]) {
				c0.skip()
				c1.skip()
				if c0.held && c1.held {
					break
				}
				continue
			}
			t0, t1 := c0.t, c1.t
			for i := n - 1; i >= 1; i-- {
				gi, di, gCi := g[i], d[i], gC[i]
				vj, aj, ap := &V[i], &acc[i], &acc[par[i]]
				b0 := gCi*vj[pa] + aj[pa]
				b1 := gCi*vj[pb] + aj[pb]
				b[i][pa], b[i][pb] = b0, b1
				aj[pa], aj[pb] = 0, 0
				ap[pa] += gi * b0 / di
				ap[pb] += gi * b1 / di
			}
			b0 := gC[0]*v[pa] + a[pa]
			b1 := gC[0]*v[pb] + a[pb]
			a[pa], a[pb] = 0, 0
			in0, in1 := c0.vin.At(t0), c1.vin.At(t1)
			v0 := solveRoot(&c0.drv, in0, d[0], b0, v[pa], c0.vdd)
			v1 := solveRoot(&c1.drv, in1, d[0], b1, v[pb], c1.vdd)
			tr[0][pa].observe(t0, dt, s0*v[pa], s0*v0, &c0.th)
			tr[0][pb].observe(t1, dt, s1*v[pb], s1*v1, &c1.th)
			m0 := math.Float64bits(v0) ^ math.Float64bits(v[pa])
			m1 := math.Float64bits(v1) ^ math.Float64bits(v[pb])
			v[pa], v[pb] = v0, v1
			settled0 := abs(v0-r0) <= tol0
			settled1 := abs(v1-r1) <= tol1
			for i := 1; i < n; i++ {
				gi, di := g[i], d[i]
				vj, vp, bj, kj := &V[i], &V[par[i]], &b[i], &tr[i]
				u0 := (bj[pa] + gi*vp[pa]) / di
				u1 := (bj[pb] + gi*vp[pb]) / di
				kj[pa].observe(t0, dt, s0*vj[pa], s0*u0, &c0.th)
				kj[pb].observe(t1, dt, s1*vj[pb], s1*u1, &c1.th)
				m0 |= math.Float64bits(u0) ^ math.Float64bits(vj[pa])
				m1 |= math.Float64bits(u1) ^ math.Float64bits(vj[pb])
				vj[pa], vj[pb] = u0, u1
				if abs(u0-r0) > tol0 {
					settled0 = false
				}
				if abs(u1-r1) > tol1 {
					settled1 = false
				}
			}
			c0.commit(pa, m0 != 0, settled0, b0, in0, V, loads)
			c1.commit(pb, m1 != 0, settled1, b1, in1, V, loads)
		}
	}

	// Tail: finish every column still running, one at a time.
	for c := 0; c < w; c++ {
		c := c & 3 // as in the paired sweep
		col := &cols[c]
		sc, railF, tol := col.sign, col.railF, col.tol
		for !col.stopped {
			col.t += dt
			if col.isQuiet(d[0], V[0][c]) {
				col.skip()
				if col.held {
					col.replay(dt)
				}
				continue
			}
			t := col.t
			for i := n - 1; i >= 1; i-- {
				bi := gC[i]*V[i][c] + acc[i][c]
				b[i][c] = bi
				acc[i][c] = 0
				acc[par[i]][c] += g[i] * bi / d[i]
			}
			b0 := gC[0]*V[0][c] + acc[0][c]
			acc[0][c] = 0
			u := col.vin.At(t)
			v0 := solveRoot(&col.drv, u, d[0], b0, V[0][c], col.vdd)
			tr[0][c].observe(t, dt, sc*V[0][c], sc*v0, &col.th)
			m := math.Float64bits(v0) ^ math.Float64bits(V[0][c])
			V[0][c] = v0
			settled := abs(v0-railF) <= tol
			for i := 1; i < n; i++ {
				v := (b[i][c] + g[i]*V[par[i]][c]) / d[i]
				tr[i][c].observe(t, dt, sc*V[i][c], sc*v, &col.th)
				m |= math.Float64bits(v) ^ math.Float64bits(V[i][c])
				V[i][c] = v
				if abs(v-railF) > tol {
					settled = false
				}
			}
			col.commit(c, m != 0, settled, b0, u, V, loads)
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
