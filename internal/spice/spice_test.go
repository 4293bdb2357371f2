package spice

import (
	"math"
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
	var dst Waveform
	tr := w.TrimInto(0.01, &dst)
	if tr != &dst || tr.T0 != 11 {
		t.Errorf("Trim T0=%v want 11 (one quiet sample kept)", tr.T0)
	}
	if tr.At(12.5) != w.At(12.5) {
		t.Error("Trim must not change interpolated values")
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
	tr := ctree.New(tk, geom.Pt(0, 0), r)
	tr.AddSink(tr.Root, geom.Pt(1, 0), c, "s")
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
	sink := tr.Sinks()[0].ID
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
	sink := tr.Sinks()[0].ID
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
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	s := tr.AddSink(tr.Root, geom.Pt(3000, 0), 35, "s")
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	b1 := tr.InsertOnEdge(s, 1000, ctree.Buffer)
	b1.Buf = &comp
	b2 := tr.InsertOnEdge(s, 1000, ctree.Buffer) // now between b1 and s
	b2.Buf = &comp
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	e := New()
	res, err := e.Evaluate(tr, tk.Reference())
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Rise[s.ID]
	if math.IsInf(lat, 1) || lat <= 0 {
		t.Fatalf("latency=%v", lat)
	}
	// Sanity: latency should be within a factor of three of the Elmore sum.
	el, _ := (&analysis.Elmore{}).Evaluate(tr, tk.Reference())
	if lat > 3*el.Rise[s.ID] || lat < el.Rise[s.ID]/3 {
		t.Errorf("transient %v vs elmore %v out of band", lat, el.Rise[s.ID])
	}
	if e.Runs != 1 {
		t.Errorf("Runs=%d want 1", e.Runs)
	}
}

func TestSymmetricTreeZeroSkew(t *testing.T) {
	tk := tech.Default45()
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	s1 := tr.AddSink(tr.Root, geom.Pt(1500, 1000), 35, "a")
	s2 := tr.AddSink(tr.Root, geom.Pt(1500, -1000), 35, "b")
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	for _, s := range []*ctree.Node{s1, s2} {
		b := tr.InsertOnEdge(s, 1200, ctree.Buffer)
		b.Buf = &comp
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
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	s := tr.AddSink(tr.Root, geom.Pt(2000, 0), 35, "s")
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	b := tr.InsertOnEdge(s, 1000, ctree.Buffer)
	b.Buf = &comp
	e := New()
	fast, _ := e.Evaluate(tr, tk.Reference())
	slow, _ := e.Evaluate(tr, tk.Worst())
	if slow.Rise[s.ID] <= fast.Rise[s.ID] {
		t.Errorf("1.0V (%v) must be slower than 1.2V (%v)", slow.Rise[s.ID], fast.Rise[s.ID])
	}
	if e.Runs != 2 {
		t.Errorf("Runs=%d want 2", e.Runs)
	}
}

func TestStrongerBufferFaster(t *testing.T) {
	tk := tech.Default45()
	mk := func(n int) (float64, float64) {
		tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
		s := tr.AddSink(tr.Root, geom.Pt(2000, 0), 35, "s")
		comp := tech.Composite{Type: tk.Inverters[1], N: n}
		b := tr.InsertOnEdge(s, 1000, ctree.Buffer)
		b.Buf = &comp
		e := New()
		res, _ := e.Evaluate(tr, tk.Reference())
		return res.Rise[s.ID], res.SinkSlew[s.ID]
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
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	s := tr.AddSink(tr.Root, geom.Pt(2000, 0), 35, "s")
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	b := tr.InsertOnEdge(s, 1000, ctree.Buffer)
	b.Buf = &comp
	eFast := New()
	eFast.SourceSlew = 10
	rFast, _ := eFast.Evaluate(tr, tk.Reference())
	eSlow := New()
	eSlow.SourceSlew = 80
	rSlow, _ := eSlow.Evaluate(tr, tk.Reference())
	// Latencies are measured from the source 50% point, so pure Elmore
	// would predict no difference; the nonlinear driver sees the slow ramp.
	if rSlow.Rise[s.ID] <= rFast.Rise[s.ID] {
		t.Errorf("slow input slew should add delay: %v vs %v", rSlow.Rise[s.ID], rFast.Rise[s.ID])
	}
}

func TestSlewViolationDetected(t *testing.T) {
	tk := tech.Default45()
	// 6 mm unbuffered from a weak source: hopeless slew.
	tr := ctree.New(tk, geom.Pt(0, 0), 0.8)
	tr.AddSink(tr.Root, geom.Pt(6000, 0), 35, "far")
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
	tr := ctree.New(tk, geom.Pt(0, 0), 0.2)
	mid := tr.AddChild(tr.Root, ctree.Internal, geom.Pt(200, 0))
	near := tr.AddSink(mid, geom.Pt(250, 0), 20, "near")
	far := tr.AddSink(mid, geom.Pt(3200, 0), 20, "far")
	far.WidthIdx = tk.Narrow()
	e := New()
	res, _ := e.Evaluate(tr, tk.Reference())
	el, _ := (&analysis.Elmore{}).Evaluate(tr, tk.Reference())
	if res.Rise[near.ID] >= el.Rise[near.ID] {
		t.Errorf("near sink: transient %v should beat Elmore %v (shielding)",
			res.Rise[near.ID], el.Rise[near.ID])
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
