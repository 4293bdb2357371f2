package spice

import (
	"math"

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
	railF, sign   float64
	th            [3]float64
	t             float64
	tEndMin, tMax float64
	waves         []*Waveform // load waveforms, in the kernel's load-node order
	stopped       bool
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
// column the tail loop is the whole integration.
//
// Every step reduces the RC tree bottom-up to a Thevenin equivalent at the
// driver output, solves the driver equation by Newton and back-substitutes
// top-down. A column's floating-point operations and their order do not
// depend on the phase it runs in or on the other columns, so its results
// are bit-identical to a one-column call. For an underated corner scaling
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

	// Per-column set-up. The reduction accumulator starts at zero and
	// every step leaves it at zero again.
	V, b, acc, tr := ss.V[:n], ss.b[:n], ss.acc[:n], ss.tr[:n]
	loads := ss.loads[:0]
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
		col.vin, col.drv, col.vdd, col.tol, col.railF = ci.vin, ci.drv, vdd, e.SettleTol*vdd, railF
		col.t, col.tEndMin, col.tMax = ci.vin.T0, tEndMin, tEndMin+30*tauMax+2000

		// Load waveforms escape into the stage result (and from there into
		// the incremental cache), so they are real allocations; presizing
		// them to the expected step count avoids append regrowth. The map
		// serves downstream lookups; each step appends through the slice.
		steps := int((tEndMin-ci.vin.T0)/dt) + 64
		if steps > 1<<20 {
			steps = 1 << 20
		}
		waves := make(map[int]*Waveform, len(s.Loads))
		rec := ss.waves[c][:0]
		for _, ld := range s.Loads {
			if _, dup := waves[ld.Node]; dup {
				continue
			}
			v := make([]float64, 1, steps)
			v[0] = rail0
			wf := &Waveform{T0: ci.vin.T0, Dt: dt, V: v, V0: rail0}
			waves[ld.Node] = wf
			rec = append(rec, wf)
			if c == 0 {
				loads = append(loads, ld.Node)
			}
		}
		ss.waves[c] = rec
		col.waves = rec
		out[c].loadWaves = waves
	}
	ss.loads = loads

	if w == 4 {
		// Four-column sweep: all columns step together until any stops.
		c0, c1, c2, c3 := &cols[0], &cols[1], &cols[2], &cols[3]
		t0, t1, t2, t3 := c0.t, c1.t, c2.t, c3.t
		s0, s1, s2, s3 := c0.sign, c1.sign, c2.sign, c3.sign
		r0, r1, r2, r3 := c0.railF, c1.railF, c2.railF, c3.railF
		tol0, tol1, tol2, tol3 := c0.tol, c1.tol, c2.tol, c3.tol
		for {
			t0 += dt
			t1 += dt
			t2 += dt
			t3 += dt
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
			v, a := &V[0], &acc[0]
			b0 := gC[0]*v[0] + a[0]
			b1 := gC[0]*v[1] + a[1]
			b2 := gC[0]*v[2] + a[2]
			b3 := gC[0]*v[3] + a[3]
			*a = [4]float64{}
			v0 := solveRoot(&c0.drv, c0.vin.At(t0), d[0], b0, v[0], c0.vdd)
			v1 := solveRoot(&c1.drv, c1.vin.At(t1), d[0], b1, v[1], c1.vdd)
			v2 := solveRoot(&c2.drv, c2.vin.At(t2), d[0], b2, v[2], c2.vdd)
			v3 := solveRoot(&c3.drv, c3.vin.At(t3), d[0], b3, v[3], c3.vdd)
			// Top-down back-substitution, updating trackers inline.
			k := &tr[0]
			k[0].observe(t0, dt, s0*v[0], s0*v0, &c0.th)
			k[1].observe(t1, dt, s1*v[1], s1*v1, &c1.th)
			k[2].observe(t2, dt, s2*v[2], s2*v2, &c2.th)
			k[3].observe(t3, dt, s3*v[3], s3*v3, &c3.th)
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
			for k, node := range loads {
				vn := &V[node]
				c0.waves[k].V = append(c0.waves[k].V, vn[0])
				c1.waves[k].V = append(c1.waves[k].V, vn[1])
				c2.waves[k].V = append(c2.waves[k].V, vn[2])
				c3.waves[k].V = append(c3.waves[k].V, vn[3])
			}
			c0.stopped = (t0 >= c0.tEndMin && settled0) || t0 >= c0.tMax
			c1.stopped = (t1 >= c1.tEndMin && settled1) || t1 >= c1.tMax
			c2.stopped = (t2 >= c2.tEndMin && settled2) || t2 >= c2.tMax
			c3.stopped = (t3 >= c3.tEndMin && settled3) || t3 >= c3.tMax
			if c0.stopped || c1.stopped || c2.stopped || c3.stopped {
				break
			}
		}
		c0.t, c1.t, c2.t, c3.t = t0, t1, t2, t3
	}

	// Paired sweep: the first two columns still running step together
	// until either stops.
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
		t0, t1 := c0.t, c1.t
		s0, s1 := c0.sign, c1.sign
		r0, r1 := c0.railF, c1.railF
		tol0, tol1 := c0.tol, c1.tol
		for {
			t0 += dt
			t1 += dt
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
			v, a := &V[0], &acc[0]
			b0 := gC[0]*v[pa] + a[pa]
			b1 := gC[0]*v[pb] + a[pb]
			a[pa], a[pb] = 0, 0
			v0 := solveRoot(&c0.drv, c0.vin.At(t0), d[0], b0, v[pa], c0.vdd)
			v1 := solveRoot(&c1.drv, c1.vin.At(t1), d[0], b1, v[pb], c1.vdd)
			tr[0][pa].observe(t0, dt, s0*v[pa], s0*v0, &c0.th)
			tr[0][pb].observe(t1, dt, s1*v[pb], s1*v1, &c1.th)
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
				vj[pa], vj[pb] = u0, u1
				if abs(u0-r0) > tol0 {
					settled0 = false
				}
				if abs(u1-r1) > tol1 {
					settled1 = false
				}
			}
			for k, node := range loads {
				c0.waves[k].V = append(c0.waves[k].V, V[node][pa])
				c1.waves[k].V = append(c1.waves[k].V, V[node][pb])
			}
			c0.stopped = (t0 >= c0.tEndMin && settled0) || t0 >= c0.tMax
			c1.stopped = (t1 >= c1.tEndMin && settled1) || t1 >= c1.tMax
			if c0.stopped || c1.stopped {
				break
			}
		}
		c0.t, c1.t = t0, t1
	}

	// Tail: finish every column still running, one at a time.
	for c := 0; c < w; c++ {
		c := c & 3 // as in the paired sweep
		col := &cols[c]
		t, sc := col.t, col.sign
		railF, tol := col.railF, col.tol
		for stop := col.stopped; !stop; {
			t += dt
			for i := n - 1; i >= 1; i-- {
				bi := gC[i]*V[i][c] + acc[i][c]
				b[i][c] = bi
				acc[i][c] = 0
				acc[par[i]][c] += g[i] * bi / d[i]
			}
			b0 := gC[0]*V[0][c] + acc[0][c]
			acc[0][c] = 0
			v0 := solveRoot(&col.drv, col.vin.At(t), d[0], b0, V[0][c], col.vdd)
			tr[0][c].observe(t, dt, sc*V[0][c], sc*v0, &col.th)
			V[0][c] = v0
			settled := abs(v0-railF) <= tol
			for i := 1; i < n; i++ {
				v := (b[i][c] + g[i]*V[par[i]][c]) / d[i]
				tr[i][c].observe(t, dt, sc*V[i][c], sc*v, &col.th)
				V[i][c] = v
				if abs(v-railF) > tol {
					settled = false
				}
			}
			for k, node := range loads {
				col.waves[k].V = append(col.waves[k].V, V[node][c])
			}
			stop = (t >= col.tEndMin && settled) || t >= col.tMax
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
		// The pool must not pin the waveforms past their owners' lifetime.
		clear(ss.waves[c])
	}
	stagePool.Put(ss)
	return out
}
