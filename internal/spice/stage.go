package spice

import (
	"math"

	"contango/internal/analysis"
	"contango/internal/tech"
)

// stageIn is one source edge's view of a stage transient: the waveform at
// the driver's input pin and the direction of the stage's output edge.
type stageIn struct {
	vin       *Waveform
	outRising bool
}

// stageResult holds per-RC-node measurements of one stage transient.
type stageResult struct {
	t50       []float64 // absolute 50% crossing, ps (+Inf if never)
	slew      []float64 // 10-90% transition time, ps (+Inf if never)
	loadWaves map[int]*Waveform
}

// column is one edge's integration state inside simStage.
type column struct {
	vin           *Waveform
	railF         float64
	t             float64
	tEndMin, tMax float64
	waves         []*Waveform // load waveforms, in the kernel's load-node order
	stopped       bool
}

// simStage integrates one stage with Backward Euler for up to two source
// edges of one corner at once. Each edge is a column of the interleaved
// state vectors (V[w*i+c] for RC node i, column c, w = len(in)): the
// conductances, the elimination factors and the driver are shared, while
// each column keeps its own input, rails, time window and crossing
// trackers. While both columns run, one paired sweep advances them in
// lockstep, so their two divide-bound tree solves overlap in the pipeline.
// Once either column stops, the tail loop finishes the other one alone;
// with a single column the tail loop is the whole integration.
//
// Every step reduces the RC tree bottom-up to a Thevenin equivalent at the
// driver output, solves the driver equation by Newton and back-substitutes
// top-down. A column's floating-point operations and their order do not
// depend on whether it ran paired or alone, so its results are
// bit-identical either way. The corner supplies the supply rail and the
// interconnect derates; for an underated corner scaling by 1.0 is exact in
// IEEE 754, so the derates change nothing there.
func (e *Engine) simStage(s *analysis.Stage, drv *driver, rd float64, corner tech.Corner, in []stageIn) (out [2]stageResult) {
	n := len(s.R)
	w := len(in)
	dt := e.Dt
	vdd := corner.Vdd
	rScale, cScale := corner.RScale(), corner.CScale()

	ss := stagePool.Get().(*stageScratch)
	ss.grow(n, w)
	g, gC := ss.g, ss.gC
	g[0] = 0 // never read, but keep the vector deterministic across reuse
	for i := 0; i < n; i++ {
		gC[i] = s.C[i] * cScale / dt
		if i > 0 {
			g[i] = 1 / (s.R[i] * rScale)
		}
	}
	// Constant elimination factors (caps and resistances are fixed). The
	// += accumulation below must start from exact zeros.
	d, elim := ss.d, ss.elim
	for i := range elim {
		elim[i] = 0
	}
	par := s.Par
	for i := n - 1; i >= 1; i-- {
		d[i] = gC[i] + g[i] + elim[i]
		elim[par[i]] += g[i] - g[i]*g[i]/d[i]
	}
	d[0] = gC[0] + elim[0]
	if d[0] <= 0 {
		d[0] = 1e-12
	}

	// Window: input transition plus several stage time constants, with a
	// hard cap to stay live under degenerate drivers.
	tauMax := 1.0
	if m := analysis.StageElmoreMaxAt(s, rd, corner); m > tauMax {
		tauMax = m
	}
	tol := e.SettleTol * vdd

	// Per-column set-up. Crossing trackers per node: 10%, 50%, 90% of vdd
	// in the output direction (for falling outputs the 90% threshold is
	// crossed first). The reduction accumulator starts at zero and every
	// step leaves it at zero again.
	V, b, acc := ss.V, ss.b, ss.acc
	lo, mid, hi := ss.lo, ss.mid, ss.hi
	loads := ss.loads[:0]
	var cols [2]column
	for c, ci := range in {
		rail0, railF := vdd, 0.0
		if ci.outRising {
			rail0, railF = 0.0, vdd
		}
		for i := 0; i < n; i++ {
			j := w*i + c
			V[j] = rail0
			acc[j] = 0
			lo[j] = crossing{th: 0.1 * vdd, rising: ci.outRising}
			mid[j] = crossing{th: 0.5 * vdd, rising: ci.outRising}
			hi[j] = crossing{th: 0.9 * vdd, rising: ci.outRising}
		}
		tEndMin := ci.vin.End() + 5*tauMax + 50
		col := &cols[c]
		*col = column{vin: ci.vin, railF: railF, t: ci.vin.T0, tEndMin: tEndMin, tMax: tEndMin + 30*tauMax + 2000}

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

	if w == 2 {
		// Paired sweep: both columns step together until either stops.
		c0, c1 := &cols[0], &cols[1]
		t0, t1 := c0.t, c1.t
		railF0, railF1 := c0.railF, c1.railF
		for {
			t0 += dt
			t1 += dt
			// Bottom-up: reduce to the root.
			for i := n - 1; i >= 1; i-- {
				j, p := 2*i, 2*par[i]
				b0 := gC[i]*V[j] + acc[j]
				b1 := gC[i]*V[j+1] + acc[j+1]
				b[j], b[j+1] = b0, b1
				acc[j], acc[j+1] = 0, 0
				acc[p] += g[i] * b0 / d[i]
				acc[p+1] += g[i] * b1 / d[i]
			}
			b0 := gC[0]*V[0] + acc[0]
			b1 := gC[0]*V[1] + acc[1]
			acc[0], acc[1] = 0, 0
			v0 := solveRoot(drv, c0.vin.At(t0), d[0], b0, V[0], vdd)
			v1 := solveRoot(drv, c1.vin.At(t1), d[0], b1, V[1], vdd)
			// Top-down back-substitution, updating trackers inline.
			lo[0].observe(t0, dt, V[0], v0)
			mid[0].observe(t0, dt, V[0], v0)
			hi[0].observe(t0, dt, V[0], v0)
			lo[1].observe(t1, dt, V[1], v1)
			mid[1].observe(t1, dt, V[1], v1)
			hi[1].observe(t1, dt, V[1], v1)
			V[0], V[1] = v0, v1
			settled0 := abs(v0-railF0) <= tol
			settled1 := abs(v1-railF1) <= tol
			for i := 1; i < n; i++ {
				j, p := 2*i, 2*par[i]
				u0 := (b[j] + g[i]*V[p]) / d[i]
				u1 := (b[j+1] + g[i]*V[p+1]) / d[i]
				lo[j].observe(t0, dt, V[j], u0)
				mid[j].observe(t0, dt, V[j], u0)
				hi[j].observe(t0, dt, V[j], u0)
				lo[j+1].observe(t1, dt, V[j+1], u1)
				mid[j+1].observe(t1, dt, V[j+1], u1)
				hi[j+1].observe(t1, dt, V[j+1], u1)
				V[j], V[j+1] = u0, u1
				if abs(u0-railF0) > tol {
					settled0 = false
				}
				if abs(u1-railF1) > tol {
					settled1 = false
				}
			}
			for k, node := range loads {
				c0.waves[k].V = append(c0.waves[k].V, V[2*node])
				c1.waves[k].V = append(c1.waves[k].V, V[2*node+1])
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
		col := &cols[c]
		t, railF := col.t, col.railF
		for stop := col.stopped; !stop; {
			t += dt
			for i := n - 1; i >= 1; i-- {
				j := w*i + c
				bi := gC[i]*V[j] + acc[j]
				b[j] = bi
				acc[j] = 0
				acc[w*par[i]+c] += g[i] * bi / d[i]
			}
			b0 := gC[0]*V[c] + acc[c]
			acc[c] = 0
			v0 := solveRoot(drv, col.vin.At(t), d[0], b0, V[c], vdd)
			lo[c].observe(t, dt, V[c], v0)
			mid[c].observe(t, dt, V[c], v0)
			hi[c].observe(t, dt, V[c], v0)
			V[c] = v0
			settled := abs(v0-railF) <= tol
			for i := 1; i < n; i++ {
				j := w*i + c
				v := (b[j] + g[i]*V[w*par[i]+c]) / d[i]
				lo[j].observe(t, dt, V[j], v)
				mid[j].observe(t, dt, V[j], v)
				hi[j].observe(t, dt, V[j], v)
				V[j] = v
				if abs(v-railF) > tol {
					settled = false
				}
			}
			for k, node := range loads {
				col.waves[k].V = append(col.waves[k].V, V[w*node+c])
			}
			stop = (t >= col.tEndMin && settled) || t >= col.tMax
		}
	}

	for c := 0; c < w; c++ {
		r := &out[c]
		r.t50 = make([]float64, n)
		r.slew = make([]float64, n)
		for i := 0; i < n; i++ {
			j := w*i + c
			if mid[j].done {
				r.t50[i] = mid[j].t
			} else {
				r.t50[i] = math.Inf(1)
			}
			if lo[j].done && hi[j].done {
				r.slew[i] = abs(hi[j].t - lo[j].t)
			} else {
				r.slew[i] = math.Inf(1)
			}
		}
		// The pool must not pin the waveforms past their owners' lifetime.
		clear(ss.waves[c])
	}
	stagePool.Put(ss)
	return out
}
