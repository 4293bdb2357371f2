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
package spice

// Waveform is a sampled voltage trace on a uniform time grid. Before T0 the
// value is V0 (the pre-transition rail); past the last sample it is the last
// sample's value.
type Waveform struct {
	T0 float64   // time of V[0], ps
	Dt float64   // sample spacing, ps
	V  []float64 // samples, V
	V0 float64   // value for t < T0
}

// At returns the linearly interpolated voltage at time t.
func (w *Waveform) At(t float64) float64 {
	if len(w.V) == 0 {
		return w.V0
	}
	if t <= w.T0 {
		return w.V0
	}
	x := (t - w.T0) / w.Dt
	i := int(x)
	if i >= len(w.V)-1 {
		return w.V[len(w.V)-1]
	}
	f := x - float64(i)
	return w.V[i]*(1-f) + w.V[i+1]*f
}

// End returns the time of the last sample.
func (w *Waveform) End() float64 {
	if len(w.V) == 0 {
		return w.T0
	}
	return w.T0 + float64(len(w.V)-1)*w.Dt
}

// Last returns the final sampled value (or V0 when empty).
func (w *Waveform) Last() float64 {
	if len(w.V) == 0 {
		return w.V0
	}
	return w.V[len(w.V)-1]
}

// TrimInto drops leading samples that stay within tol of V0, keeping one
// sample of margin, and returns the trimmed waveform. Trimming lets
// downstream stages start their windows when their input actually begins
// to move. It returns w itself when nothing is trimmed and otherwise writes
// the trimmed header into dst and returns dst; the samples are shared with
// w either way. The incremental evaluator trims into per-stage scratch so
// cache hits allocate nothing.
func (w *Waveform) TrimInto(tol float64, dst *Waveform) *Waveform {
	first := len(w.V)
	for i, v := range w.V {
		if abs(v-w.V0) > tol {
			first = i
			break
		}
	}
	if first == 0 {
		return w
	}
	if first > 0 {
		first-- // keep one quiet sample for interpolation
	}
	*dst = Waveform{
		T0: w.T0 + float64(first)*w.Dt,
		Dt: w.Dt,
		V:  w.V[first:],
		V0: w.V0,
	}
	return dst
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
