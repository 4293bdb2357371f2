// Package spice is the library's SPICE substitute: a transient simulator for
// buffered clock networks. It reproduces the effects the paper needs SPICE
// for — resistive shielding in long wires, slew propagation between stages,
// the impact of slew on delay, and supply-voltage corners — while remaining
// fast enough to sit inside the optimization loop, exactly the role ngSPICE
// and HSPICE play in the paper's flow.
//
// The network is decomposed at inverter boundaries into stages (package
// analysis). Each stage is a linear RC tree driven by one nonlinear element:
// a square-law CMOS push-pull inverter (or, for the source stage, a resistor
// to the input ramp). Backward-Euler integration turns every timestep into a
// tree-structured linear solve done in O(n) with a bottom-up Thevenin
// reduction; the single nonlinear node (the driver output) is resolved by a
// safeguarded 1-D Newton iteration. Full node waveforms propagate from stage
// to stage, so downstream delays see realistic input slews.
//
// Each stage's eager window covers its input's whole waveform plus its own
// settling, so windows grow with depth, yet a stage's t50 and slew are
// final at its last threshold crossing, and a child reads its input only
// up to the child's own last crossing. So stages integrate on demand: a
// stage without loads stops at its last crossing, and a stage with loads
// suspends there and keeps its state, and its load waveforms are views
// that extend it when a child reads past the samples computed so far. The
// incremental evaluator starts a stage about as far ahead as its children
// read the stage's previous transient, so that children rarely wait on a
// parent. Every sample anyone reads is the sample the eager integration
// computes, and steps past the eager stop are never taken, so results are
// bit-identical. Within the steps it takes, the kernel skips quiet ones at
// O(1) cost each, and a waveform stores its settled tail implicitly, as a
// count of repeats of its last sample. The steps it does take are the bare
// tree solve: crossing trackers run only while a node has a threshold left
// to cross, the settle check only where the stop test reads it, chains of
// RC nodes carry their values in registers, and on the exact time grid
// the input is read by step index and a held column's remaining steps are
// counted in closed form.
//
// Inside the optimization loop the incremental evaluator (Incremental)
// caches stage transients, so a move re-integrates only the stages it
// changed and their downstream cone. The paper's flow also returns to whole
// networks it has judged before: a probe is reverted and the baseline
// evaluated again, and a convergence cycle reruns the wire passes, whose
// trials repeat the rejected trials of the standalone passes. The
// evaluator therefore also memoizes whole-network results, keyed by the
// stage signatures, and answers a revisited network without touching a
// stage. The memo holds results in a compact flat form and is bounded by a
// byte budget, evicting least recently used networks. Stages are
// scheduled by dependency: a stage starts as soon as its parent's
// transient has suspended or stopped, with at most the evaluator's
// Parallelism stage integrations running at once; a child extending its
// parent does so inside its own integration slot.
package spice

import (
	"math"
	"math/bits"
)

// Waveform is a sampled voltage trace on a uniform time grid: sample k sits
// at T0 + k·Dt. Only the first len(V) samples are stored. The Tail samples
// after them repeat the last stored one, so a trace that has settled costs
// nothing per further step. Before T0 the value is V0 (the pre-transition
// rail); past the last sample it is the last sample's value. Every method
// returns exactly what it would return for the materialized trace, the
// stored samples followed by Tail copies of the last.
//
// A stage's load waveform may be unfinished: a view on a stage transient
// that has suspended before its eager stop (stageRun), because nothing has
// read that far yet. Such a view has feed set, and skip counts the samples
// of the feed it drops at the front (Trim). Its methods pull the
// producer as far as they read, and so still return what the finished
// trace would: At up to the time asked for, Trim up to the first
// sample that leaves the band, and Len, End and Last to the producer's
// stop. A snapshot (pull) is a view that also carries the samples computed
// so far in V and Tail; past them it must be pulled again.
type Waveform struct {
	T0   float64   // time of V[0], ps
	Dt   float64   // sample spacing, ps
	V    []float64 // stored samples, V
	Tail int       // implicit samples past V, each equal to V[len(V)-1]; 0 when V is empty
	V0   float64   // value for t < T0

	feed *feed // the unfinished producer of the samples, nil once finished
	skip int   // samples of feed before V[0]
}

// known returns the number of samples in V and Tail: all of them for a
// finished waveform, the ones computed so far for a snapshot.
func (w *Waveform) known() int { return len(w.V) + w.Tail }

// pull returns a snapshot of w that covers at least m samples, or w's final
// form if its producer stops first. For a finished waveform it is w.
func (w *Waveform) pull(m int) Waveform {
	f := w.feed
	if f == nil {
		return *w
	}
	if !f.done.Load() {
		r := f.run
		r.mu.Lock()
		r.extend(f.c, m+w.skip)
		if !f.done.Load() {
			col := &r.cols[f.c]
			s := Waveform{T0: w.T0, Dt: w.Dt, V: col.recorded(f.l)[w.skip:], Tail: col.quiet, V0: w.V0, feed: f, skip: w.skip}
			r.mu.Unlock()
			return s
		}
		r.mu.Unlock()
	}
	return w.finalView()
}

// finalView returns w's final form once its feed is done: the feed's
// final waveform with skip samples dropped, as Trim drops them.
func (w *Waveform) finalView() Waveform {
	fin := &w.feed.fin
	k := min(w.skip, len(fin.V)-1)
	return Waveform{T0: w.T0, Dt: w.Dt, V: fin.V[k:], Tail: fin.known() - w.skip - (len(fin.V) - k), V0: w.V0}
}

// final returns w's final form without pulling, and whether it has one.
func (w *Waveform) final() (Waveform, bool) {
	switch {
	case w.feed == nil:
		return *w, true
	case w.feed.done.Load():
		return w.finalView(), true
	}
	return Waveform{}, false
}

// complete returns w's final form, pulling its producer to its stop.
func (w *Waveform) complete() Waveform { return w.pull(allSamples) }

// Len returns the number of samples: the stored ones plus the tail.
func (w *Waveform) Len() int {
	if w.feed != nil {
		c := w.complete()
		return c.known()
	}
	return len(w.V) + w.Tail
}

// atNeeds returns how many samples At(t) reads: up to the one after t's.
func (w *Waveform) atNeeds(t float64) int {
	if t <= w.T0 {
		return 0
	}
	return int((t-w.T0)/w.Dt) + 2
}

// At returns the linearly interpolated voltage at time t.
func (w *Waveform) At(t float64) float64 {
	if m := w.atNeeds(t); w.feed != nil && w.known() < m {
		s := w.pull(m)
		return s.at(t)
	}
	return w.at(t)
}

// at is At on a waveform that is finished or covers atNeeds(t) samples.
func (w *Waveform) at(t float64) float64 {
	if len(w.V) == 0 || t <= w.T0 {
		return w.V0
	}
	x := (t - w.T0) / w.Dt
	i := int(x)
	last := len(w.V) - 1
	if i >= last+w.Tail {
		return w.V[last]
	}
	f := x - float64(i)
	if i >= last {
		// Inside the tail both neighbours are the last sample. Interpolate
		// anyway: c·(1-f) + c·f need not round to c.
		c := w.V[last]
		return c*(1-f) + c*f
	}
	return w.V[i]*(1-f) + w.V[i+1]*f
}

// heldFrom reports whether At returns the last sample at t and at every
// later time the caller will ask for. That holds once t is past the
// interval of the last sample. Inside the tail it holds when onGrid
// promises that every such time falls exactly on a sample, so that
// interpolation weighs the last sample by exactly 1 and 0, and the last
// sample is finite. An unfinished waveform may still change, so it is
// never held.
func (w *Waveform) heldFrom(t float64, onGrid bool) bool {
	if w.feed != nil {
		return false
	}
	if len(w.V) == 0 {
		return true
	}
	if t <= w.T0 {
		return false
	}
	i := int((t - w.T0) / w.Dt)
	last := len(w.V) - 1
	if i >= last+w.Tail {
		return true
	}
	c := w.V[last]
	return onGrid && i >= last && !math.IsInf(c, 0) && !math.IsNaN(c)
}

// exactGrid reports whether the times t0 + dt, t0 + 2·dt, ... up to one
// step past tMax, each computed by adding dt to the one before, are exactly
// t0 + k·dt, so that (t - t0)/dt is exactly the integer k. That holds when
// t0 and dt are whole multiples of one power of two 2^e and every time
// stays below 2^(53+e) in magnitude: every sum is then representable, so
// rounding leaves it exact.
func exactGrid(t0, dt, tMax float64) bool {
	if !(dt > 0) || math.IsInf(dt, 0) || math.IsInf(t0, 0) || math.IsNaN(t0) || math.IsNaN(tMax) {
		return false
	}
	e := lowBit(dt)
	if t0 != 0 {
		e = min(e, lowBit(t0))
	}
	return math.Abs(t0)+math.Abs(tMax)+dt < math.Ldexp(1, 53+e)
}

// lowBit returns the exponent of the lowest set bit of finite, non-zero x:
// x = m·2^e with m an odd integer.
func lowBit(x float64) int {
	frac, exp := math.Frexp(x)
	m := uint64(math.Abs(frac) * (1 << 53)) // the 53-bit significand, exactly
	return exp - 53 + bits.TrailingZeros64(m)
}

// End returns the time of the last sample.
func (w *Waveform) End() float64 {
	if w.feed != nil {
		c := w.complete()
		return c.End()
	}
	if len(w.V) == 0 {
		return w.T0
	}
	return w.T0 + float64(w.Len()-1)*w.Dt
}

// Last returns the final sampled value (or V0 when empty).
func (w *Waveform) Last() float64 {
	if w.feed != nil {
		c := w.complete()
		return c.Last()
	}
	if len(w.V) == 0 {
		return w.V0
	}
	return w.V[len(w.V)-1]
}

// Trim drops leading samples that stay within tol of V0, keeping one
// sample of margin, and returns the trimmed waveform, which shares w's
// samples. Trimming lets downstream stages start their windows when their
// input actually begins to move. An unfinished waveform is pulled until a
// sample leaves the band; its trimmed form is an unfinished view too. A
// suspended stage transient has one among the samples it has computed,
// since every node has crossed 10% of the swing.
func (w *Waveform) Trim(tol float64) Waveform {
	if w.feed != nil {
		s := w.pull(1)
		for i := 0; ; {
			for ; i < len(s.V); i++ {
				if abs(s.V[i]-s.V0) > tol {
					break
				}
			}
			if s.feed == nil {
				return s.Trim(tol) // finished first: trim the final form
			}
			if i < len(s.V) {
				if i == 0 {
					return *w
				}
				first := i - 1 // keep one quiet sample for interpolation
				return Waveform{T0: w.T0 + float64(first)*w.Dt, Dt: w.Dt, V0: w.V0, feed: w.feed, skip: w.skip + first}
			}
			s = w.pull(s.known() + extendChunk)
		}
	}
	// The tail repeats the last stored sample, so if no stored sample
	// leaves the band, no sample does.
	first := w.Len()
	for i, v := range w.V {
		if abs(v-w.V0) > tol {
			first = i
			break
		}
	}
	if first == 0 {
		return *w
	}
	first-- // keep one quiet sample for interpolation
	k := min(first, len(w.V)-1)
	return Waveform{
		T0:   w.T0 + float64(first)*w.Dt,
		Dt:   w.Dt,
		V:    w.V[k:],
		Tail: w.Len() - first - (len(w.V) - k),
		V0:   w.V0,
	}
}

// Ramp builds a linear transition from v0 to v1 starting at t=0 with the
// given transition time (ps) and sample spacing dt.
func Ramp(v0, v1, trans, dt float64) *Waveform {
	n := int(trans/dt) + 1
	if n < 2 {
		n = 2
	}
	w := &Waveform{T0: 0, Dt: dt, V: make([]float64, n), V0: v0}
	for i := 0; i < n; i++ {
		f := float64(i) * dt / trans
		if f > 1 {
			f = 1
		}
		w.V[i] = v0 + (v1-v0)*f
	}
	return w
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
