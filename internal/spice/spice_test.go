package spice

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

func TestWaveformAtAndTrim(t *testing.T) {
	w := &Waveform{T0: 10, Dt: 1, V: []float64{0, 0, 0.5, 1, 1}, V0: 0}
	if w.At(5) != 0 {
		t.Error("before T0 should be V0")
	}
	if got := w.At(12.5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("At(12.5)=%v want 0.75", got)
	}
	if w.At(100) != 1 {
		t.Error("past end should hold last sample")
	}
	if w.End() != 14 {
		t.Errorf("End=%v want 14", w.End())
	}
	tr := w.Trim(0.01)
	if tr.T0 != 11 {
		t.Errorf("Trim T0=%v want 11 (one quiet sample kept)", tr.T0)
	}
	if tr.At(12.5) != w.At(12.5) {
		t.Error("Trim must not change interpolated values")
	}
}

// TestWaveformTailMatchesMaterialized: a waveform whose settled tail is
// stored implicitly must answer At, End, Last, Len and Trim exactly as the
// materialized trace does, including an empty tail, an empty waveform, a
// trace that is quiet throughout (Trim keeps one sample),
// the same content split at different stored lengths, and a non-dyadic
// sample spacing, where interpolation inside the tail need not return the
// tail's value.
func TestWaveformTailMatchesMaterialized(t *testing.T) {
	split := func(v []float64, stored int, t0, dt float64) *Waveform {
		return &Waveform{T0: t0, Dt: dt, V: v[:stored], Tail: len(v) - stored, V0: v[0]}
	}
	rise := []float64{0, 0, 0.3, 0.6, 0.9, 0.9, 0.9, 0.9}
	cases := []struct {
		name  string
		forms []*Waveform // equal content, different splits
	}{
		{"empty waveform", []*Waveform{{T0: 3, Dt: 1, V0: 0.4}}},
		{"empty tail", []*Waveform{{T0: 10, Dt: 1, V: []float64{0, 0, 0.5, 1, 1}}}},
		{"quiet throughout", []*Waveform{
			{T0: 2, Dt: 1, V: []float64{0.2}, Tail: 6, V0: 0.2},
			{T0: 2, Dt: 1, V: []float64{0.2, 0.2, 0.2}, Tail: 4, V0: 0.2},
		}},
		{"splits", []*Waveform{split(rise, 5, 4, 1), split(rise, 6, 4, 1), split(rise, 8, 4, 1)}},
		{"non-dyadic spacing", []*Waveform{split(rise, 5, 0.35, 0.7), split(rise, 7, 0.35, 0.7)}},
	}
	var offGrid int // tail interpolations that do not return the tail value
	for _, tc := range cases {
		for fi, w := range tc.forms {
			m := &Waveform{T0: w.T0, Dt: w.Dt, V: samples(w), V0: w.V0}
			what := fmt.Sprintf("%s, form %d", tc.name, fi)
			if w.Len() != len(m.V) || w.End() != m.End() || math.Float64bits(w.Last()) != math.Float64bits(m.Last()) {
				t.Fatalf("%s: Len/End/Last %d/%v/%v, materialized %d/%v/%v", what, w.Len(), w.End(), w.Last(), len(m.V), m.End(), m.Last())
			}
			for tm := w.T0 - 1; tm < w.End()+3*w.Dt; tm += 0.037 {
				got, want := w.At(tm), m.At(tm)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: At(%v) = %v, materialized %v", what, tm, got, want)
				}
				if len(w.V) > 0 && tm > w.T0+float64(len(w.V)-1)*w.Dt && tm < w.End() && got != w.Last() {
					offGrid++
				}
			}
			for _, tol := range []float64{0.001, 0.5, 5} {
				tw, tmat := w.Trim(tol), m.Trim(tol)
				if tw.T0 != tmat.T0 || !slices.Equal(samples(&tw), samples(&tmat)) {
					t.Fatalf("%s: Trim(%v) T0 %v len %d, materialized T0 %v len %d", what, tol, tw.T0, tw.Len(), tmat.T0, tmat.Len())
				}
				if tw.Len() > 0 && len(tw.V) == 0 {
					t.Fatalf("%s: Trim(%v) left a tail without a stored sample", what, tol)
				}
			}
		}
	}
	if offGrid == 0 {
		t.Error("no tail interpolation differed from the tail value")
	}
	if q := (&Waveform{T0: 2, Dt: 1, V: []float64{0.2}, Tail: 6, V0: 0.2}).Trim(0.01); q.Len() != 1 || q.T0 != 8 {
		t.Errorf("quiet trace trimmed to %d samples at %v, want 1 at 8", q.Len(), q.T0)
	}
}

// TestHeldInputMatchesAt: where exactGrid holds, every step time must be
// a whole number of samples from the start. Once heldFrom reports an input
// held at a step, At must return the last sample at that step and at
// every later one,
// stepping by repeated addition from the input's start as simStage does.
// Step times land on the sample grid when the step equals the sample
// spacing, both are dyadic and the start is integral; otherwise, and
// always when the step differs from the spacing, they fall off it, and
// the tail may only count as held past its end.
func TestHeldInputMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	spacings := []float64{1, 2, 0.5, 0.7, 0.3}
	var inTail, onGrid int
	for trial := 0; trial < 3000; trial++ {
		dt := spacings[rng.Intn(len(spacings))]
		step := dt
		if rng.Intn(2) == 0 {
			step = spacings[rng.Intn(len(spacings))]
		}
		t0 := math.Floor(rng.Float64() * 400)
		if rng.Intn(3) == 0 {
			t0 = rng.Float64() * 400
		}
		v := make([]float64, 1+rng.Intn(6))
		for i := range v {
			v[i] = rng.Float64() * 1.3
		}
		w := &Waveform{T0: t0, Dt: dt, V: v, Tail: rng.Intn(40), V0: 0}
		tMax := w.End() + 100*rng.Float64()
		grid := step == dt && exactGrid(t0, dt, tMax)
		if grid {
			onGrid++
		}
		held := false
		for tm := t0 + step; tm < tMax; tm += step {
			if x := (tm - t0) / dt; grid && x != math.Trunc(x) {
				t.Fatalf("trial %d: exactGrid holds, but step time %v is %v samples from %v", trial, tm, x, t0)
			}
			if !held && w.heldFrom(tm, grid) {
				held = true
				if tm < w.End() {
					inTail++
				}
			}
			if held && math.Float64bits(w.At(tm)) != math.Float64bits(w.Last()) {
				t.Fatalf("trial %d: held at %v but At = %v, last %v (T0 %v, spacing %v, step %v)", trial, tm, w.At(tm), w.Last(), t0, dt, step)
			}
		}
	}
	if inTail == 0 || onGrid == 0 {
		t.Errorf("coverage: %d held inside the tail, %d on-grid trials", inTail, onGrid)
	}
}

func TestRamp(t *testing.T) {
	w := Ramp(0, 1.2, 20, 1)
	if w.At(0) != 0 || math.Abs(w.At(10)-0.6) > 1e-9 || math.Abs(w.At(50)-1.2) > 1e-9 {
		t.Errorf("ramp values wrong: %v %v %v", w.At(0), w.At(10), w.At(50))
	}
	down := Ramp(1.2, 0, 20, 1)
	if math.Abs(down.At(10)-0.6) > 1e-9 {
		t.Errorf("falling ramp mid=%v", down.At(10))
	}
}

func TestCrossingTracker(t *testing.T) {
	// Rising thresholds at 0.1, 0.5 and 0.9 of a 1 V swing.
	th := [3]float64{0.1, 0.5, 0.9}
	var c tracker
	c.observe(1, 1, 0.0, 0.05, &th)
	if c.next != 0 {
		t.Fatal("no crossing yet")
	}
	c.observe(2, 1, 0.05, 0.3, &th)
	if c.next != 1 || math.Abs(c.t[0]-1.2) > 1e-12 {
		t.Fatalf("10%% crossing %d at %v want 1.2", c.next, c.t[0])
	}
	// One step crosses both remaining thresholds.
	c.observe(3, 1, 0.3, 1.0, &th)
	if c.next != 3 || math.Abs(c.t[1]-(2+0.2/0.7)) > 1e-12 || math.Abs(c.t[2]-(2+0.6/0.7)) > 1e-12 {
		t.Fatalf("crossings %d at %v", c.next, c.t)
	}
	// A falling edge is fed sign-folded: -V against the negated levels in
	// reverse order, so its 50% crossing sits at the same interpolation.
	fth := [3]float64{-0.9, -0.5, -0.1}
	var f tracker
	f.observe(1, 1, -1.0, -0.25, &fth)
	if f.next != 2 || math.Abs(f.t[1]-(1-1+0.5/0.75)) > 1e-9 {
		t.Fatalf("falling crossing %d at %v", f.next, f.t[1])
	}
}

// lumpedRC builds source(R=1kΩ) -> tiny wire -> sink(C). Using a very short
// wire makes the analytic single-pole model accurate.
func lumpedRC(tk *tech.Tech, r, c float64) *ctree.Tree {
	a := ctree.NewArena(tk, geom.Pt(0, 0), r, ctree.BuildHints{})
	tr := ctree.NewTree(a)
	a.AddSink(a.Root(), geom.Pt(1, 0), c, "s")
	return tr
}

func TestStepResponseMatchesAnalyticRC(t *testing.T) {
	tk := tech.Default45()
	r, c := 0.5, 200.0 // tau = 100 ps
	tr := lumpedRC(tk, r, c)
	e := New()
	e.SourceSlew = 0.1 // near-ideal step
	res, err := e.Evaluate(tr, tk.Reference())
	if err != nil {
		t.Fatal(err)
	}
	sink := int(tr.Arena().Sinks()[0])
	tau := r * (c + tk.Wires[0].CPerUm*1) // include the 1 µm wire cap
	wantT50 := tau * math.Ln2
	wantSlew := tau * math.Log(9)
	if got := res.Rise[sink]; math.Abs(got-wantT50)/wantT50 > 0.03 {
		t.Errorf("t50=%v want %v (3%%)", got, wantT50)
	}
	if got := res.SinkSlew[sink]; math.Abs(got-wantSlew)/wantSlew > 0.03 {
		t.Errorf("slew=%v want %v (3%%)", got, wantSlew)
	}
	// Rising and falling launches are symmetric for a linear network.
	if math.Abs(res.Rise[sink]-res.Fall[sink]) > 0.5 {
		t.Errorf("rise/fall asymmetry on linear net: %v vs %v", res.Rise[sink], res.Fall[sink])
	}
}

func TestTimestepConvergence(t *testing.T) {
	tk := tech.Default45()
	tr := lumpedRC(tk, 0.5, 200)
	sink := int(tr.Arena().Sinks()[0])
	e1 := New()
	e1.Dt = 2
	r1, _ := e1.Evaluate(tr, tk.Reference())
	e2 := New()
	e2.Dt = 0.5
	r2, _ := e2.Evaluate(tr, tk.Reference())
	if math.Abs(r1.Rise[sink]-r2.Rise[sink]) > 0.02*r2.Rise[sink] {
		t.Errorf("timestep sensitivity too high: dt=2 -> %v, dt=0.5 -> %v", r1.Rise[sink], r2.Rise[sink])
	}
}

func TestInverterChainPolarityAndDelay(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	tr := ctree.NewTree(a)
	s := a.AddSink(a.Root(), geom.Pt(3000, 0), 35, "s")
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	b1 := a.InsertOnEdge(s, 1000, ctree.Buffer)
	a.SetBuf(b1, comp)
	b2 := a.InsertOnEdge(s, 1000, ctree.Buffer) // now between b1 and s
	a.SetBuf(b2, comp)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	e := New()
	res, err := e.Evaluate(tr, tk.Reference())
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Rise[int(s)]
	if math.IsInf(lat, 1) || lat <= 0 {
		t.Fatalf("latency=%v", lat)
	}
	// Sanity: latency should be within a factor of three of the Elmore sum.
	el, _ := (&analysis.Elmore{}).Evaluate(tr, tk.Reference())
	if lat > 3*el.Rise[int(s)] || lat < el.Rise[int(s)]/3 {
		t.Errorf("transient %v vs elmore %v out of band", lat, el.Rise[int(s)])
	}
	if e.Runs != 1 {
		t.Errorf("Runs=%d want 1", e.Runs)
	}
}

func TestSymmetricTreeZeroSkew(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	tr := ctree.NewTree(a)
	s1 := a.AddSink(a.Root(), geom.Pt(1500, 1000), 35, "a")
	s2 := a.AddSink(a.Root(), geom.Pt(1500, -1000), 35, "b")
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	for _, s := range []int32{s1, s2} {
		b := a.InsertOnEdge(s, 1200, ctree.Buffer)
		a.SetBuf(b, comp)
	}
	e := New()
	res, err := e.Evaluate(tr, tk.Reference())
	if err != nil {
		t.Fatal(err)
	}
	if sk := res.Skew(); sk > 0.1 {
		t.Errorf("symmetric tree skew=%v ps, want < 0.1", sk)
	}
}

func TestLowVddSlower(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	tr := ctree.NewTree(a)
	s := a.AddSink(a.Root(), geom.Pt(2000, 0), 35, "s")
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	b := a.InsertOnEdge(s, 1000, ctree.Buffer)
	a.SetBuf(b, comp)
	e := New()
	fast, _ := e.Evaluate(tr, tk.Reference())
	slow, _ := e.Evaluate(tr, tk.Worst())
	if slow.Rise[int(s)] <= fast.Rise[int(s)] {
		t.Errorf("1.0V (%v) must be slower than 1.2V (%v)", slow.Rise[int(s)], fast.Rise[int(s)])
	}
	if e.Runs != 2 {
		t.Errorf("Runs=%d want 2", e.Runs)
	}
}

func TestStrongerBufferFaster(t *testing.T) {
	tk := tech.Default45()
	mk := func(n int) (float64, float64) {
		a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
		tr := ctree.NewTree(a)
		s := a.AddSink(a.Root(), geom.Pt(2000, 0), 35, "s")
		comp := tech.Composite{Type: tk.Inverters[1], N: n}
		b := a.InsertOnEdge(s, 1000, ctree.Buffer)
		a.SetBuf(b, comp)
		e := New()
		res, _ := e.Evaluate(tr, tk.Reference())
		return res.Rise[int(s)], res.SinkSlew[int(s)]
	}
	lat8, slew8 := mk(8)
	lat2, slew2 := mk(2)
	if lat8 >= lat2 {
		t.Errorf("8x (%v) should beat 2x (%v)", lat8, lat2)
	}
	if slew8 >= slew2 {
		t.Errorf("8x slew (%v) should beat 2x slew (%v)", slew8, slew2)
	}
}

func TestSlewToDelayCoupling(t *testing.T) {
	// A slower input ramp must increase downstream latency — the effect the
	// paper says Elmore-like models miss.
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	tr := ctree.NewTree(a)
	s := a.AddSink(a.Root(), geom.Pt(2000, 0), 35, "s")
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	b := a.InsertOnEdge(s, 1000, ctree.Buffer)
	a.SetBuf(b, comp)
	eFast := New()
	eFast.SourceSlew = 10
	rFast, _ := eFast.Evaluate(tr, tk.Reference())
	eSlow := New()
	eSlow.SourceSlew = 80
	rSlow, _ := eSlow.Evaluate(tr, tk.Reference())
	// Latencies are measured from the source 50% point, so pure Elmore
	// would predict no difference; the nonlinear driver sees the slow ramp.
	if rSlow.Rise[int(s)] <= rFast.Rise[int(s)] {
		t.Errorf("slow input slew should add delay: %v vs %v", rSlow.Rise[int(s)], rFast.Rise[int(s)])
	}
}

func TestSlewViolationDetected(t *testing.T) {
	tk := tech.Default45()
	// 6 mm unbuffered from a weak source: hopeless slew.
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.8, ctree.BuildHints{})
	tr := ctree.NewTree(a)
	a.AddSink(a.Root(), geom.Pt(6000, 0), 35, "far")
	e := New()
	res, err := e.Evaluate(tr, tk.Reference())
	if err != nil {
		t.Fatal(err)
	}
	if res.SlewViol == 0 {
		t.Errorf("expected slew violations, max slew %v", res.MaxSlew)
	}
	if res.MaxSlew <= tk.SlewLimit {
		t.Errorf("max slew %v should exceed limit %v", res.MaxSlew, tk.SlewLimit)
	}
}

func TestResistiveShielding(t *testing.T) {
	// A near sink behind a long resistive branch: Elmore lumps the far
	// branch fully, the transient sees shielding, so transient < Elmore at
	// the near sink. This is the qualitative gap the paper exploits.
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.2, ctree.BuildHints{})
	tr := ctree.NewTree(a)
	mid := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(200, 0))
	near := a.AddSink(mid, geom.Pt(250, 0), 20, "near")
	far := a.AddSink(mid, geom.Pt(3200, 0), 20, "far")
	a.WidthIdx[far] = int32(tk.Narrow())
	e := New()
	res, _ := e.Evaluate(tr, tk.Reference())
	el, _ := (&analysis.Elmore{}).Evaluate(tr, tk.Reference())
	if res.Rise[int(near)] >= el.Rise[int(near)] {
		t.Errorf("near sink: transient %v should beat Elmore %v (shielding)",
			res.Rise[int(near)], el.Rise[int(near)])
	}
}

func TestMosfetModel(t *testing.T) {
	k := 10.0
	if i, g := mosfet(k, -0.1, 0.5); i != 0 || g != 0 {
		t.Error("cut-off device must not conduct")
	}
	// Triode: small vds.
	i1, g1 := mosfet(k, 1.0, 0.01)
	if i1 <= 0 || g1 <= 0 {
		t.Error("triode region broken")
	}
	// Saturation: vds > vov.
	iSat, gSat := mosfet(k, 1.0, 2.0)
	if math.Abs(iSat-k) > 1e-12 || gSat != 0 {
		t.Errorf("saturation current %v want %v, g=%v", iSat, k, gSat)
	}
	// Continuity at vds = vov.
	iTri, _ := mosfet(k, 1.0, 1.0)
	if math.Abs(iTri-iSat) > 1e-9 {
		t.Errorf("discontinuous at pinch-off: %v vs %v", iTri, iSat)
	}
}

func TestSolveRootLinear(t *testing.T) {
	// With a resistor driver the root equation is linear; Newton must land
	// exactly: d0·v - b0 = (vin - v)/r.
	d0, b0, vin, r := 2.0, 1.0, 1.2, 0.5
	v := solveRoot(&driver{r: r}, vin, d0, b0, 0, 1.2)
	want := (b0 + vin/r) / (d0 + 1/r)
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("v=%v want %v", v, want)
	}
}

func TestEvaluateAllCorners(t *testing.T) {
	tk := tech.Default45()
	tr := lumpedRC(tk, 0.3, 100)
	e := New()
	results, err := e.EvaluateAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(tk.Corners) {
		t.Fatalf("results=%d want %d", len(results), len(tk.Corners))
	}
	if e.Runs != len(tk.Corners) {
		t.Errorf("Runs=%d want %d", e.Runs, len(tk.Corners))
	}
}
