package analysis

import (
	"math"
	"testing"

	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

func fastCorner(t *tech.Tech) tech.Corner { return t.Reference() }

// newArena returns an arena holding just a source at the origin.
func newArena(tk *tech.Tech, sourceR float64) *ctree.Arena {
	return ctree.NewArena(tk, geom.Pt(0, 0), sourceR, ctree.BuildHints{})
}

// extract extracts a's netlist, failing the test on a structural error.
func extract(t testing.TB, a *ctree.Arena, maxSeg float64) *Net {
	t.Helper()
	var net Net
	if err := net.Extract(a, maxSeg); err != nil {
		t.Fatal(err)
	}
	return &net
}

// singleWire builds source -> 1000 µm wire -> sink(35 fF).
func singleWire(tk *tech.Tech) *ctree.Arena {
	a := newArena(tk, 0.1)
	a.AddSink(a.Root(), geom.Pt(1000, 0), 35, "s")
	return a
}

func TestExtractSingleWire(t *testing.T) {
	tk := tech.Default45()
	net := extract(t, singleWire(tk), 100)
	if len(net.Stages) != 1 {
		t.Fatalf("stages=%d want 1", len(net.Stages))
	}
	s := net.Stages[0]
	// 1000 µm at 100 µm/segment -> 10 segments -> 11 RC nodes.
	if len(s.R) != 11 {
		t.Fatalf("rc nodes=%d want 11", len(s.R))
	}
	wantC := tk.Wires[0].CPerUm*1000 + 35
	if math.Abs(s.TotalCap()-wantC) > 1e-9 {
		t.Errorf("stage cap=%v want %v", s.TotalCap(), wantC)
	}
	if len(s.Sinks) != 1 || len(s.Loads) != 0 {
		t.Errorf("sinks=%d loads=%d", len(s.Sinks), len(s.Loads))
	}
}

func TestExtractStagesAtBuffers(t *testing.T) {
	tk := tech.Default45()
	a := newArena(tk, 0.1)
	s := a.AddSink(a.Root(), geom.Pt(2000, 0), 35, "s")
	b := a.InsertOnEdge(s, 1000, ctree.Buffer)
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	a.SetBuf(b, comp)
	net := extract(t, a, 100)
	if len(net.Stages) != 2 {
		t.Fatalf("stages=%d want 2", len(net.Stages))
	}
	src, drv := net.Stages[0], net.Stages[1]
	if len(src.Loads) != 1 || src.Loads[0].Slot != int(b) {
		t.Error("source stage should end at the buffer input")
	}
	if drv.Driver != int(b) || drv.Buf != comp || drv.Parent != 0 || drv.InputNode != src.Loads[0].Node {
		t.Error("buffer stage linkage wrong")
	}
	// Buffer output cap at the stage root (plus the first wire π half-cap).
	firstHalf := tk.Wires[0].CPerUm * 100 / 2
	if math.Abs(drv.C[0]-(comp.Cout()+firstHalf)) > 1e-9 {
		t.Errorf("stage root cap=%v want Cout+half=%v", drv.C[0], comp.Cout()+firstHalf)
	}
	// Total driven cap: output cap + wire + sink.
	wantTotal := comp.Cout() + tk.Wires[0].CPerUm*1000 + 35
	if math.Abs(drv.TotalCap()-wantTotal) > 1e-9 {
		t.Errorf("stage cap=%v want %v", drv.TotalCap(), wantTotal)
	}
}

func TestElmoreMatchesHandComputation(t *testing.T) {
	// Source R=0.1 kΩ driving a single lumped-ish wire: Elmore at sink =
	// R_src·(Cw+Cs) + Rw·(Cw/2+Cs). Subdivision should not change this.
	tk := tech.Default45()
	a := singleWire(tk)
	rw := tk.Wires[0].RPerUm * 1000
	cw := tk.Wires[0].CPerUm * 1000
	want := 0.1*(cw+35) + rw*(cw/2+35)
	for _, maxSeg := range []float64{1000, 100, 10} {
		e := &Elmore{MaxSeg: maxSeg}
		res, err := e.Evaluate(ctree.NewTree(a), fastCorner(tk))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Rise[int(a.Sinks()[0])]
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("maxSeg=%v: elmore=%v want %v", maxSeg, got, want)
		}
	}
}

func TestElmoreAdditivityAcrossBuffer(t *testing.T) {
	// Inserting a zero-size ideal buffer cannot be tested directly, but a
	// real buffer must make the total latency equal stage1 + stage2.
	tk := tech.Default45()
	a := newArena(tk, 0.1)
	s := a.AddSink(a.Root(), geom.Pt(2000, 0), 35, "s")
	b := a.InsertOnEdge(s, 1000, ctree.Buffer)
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	a.SetBuf(b, comp)

	rw := tk.Wires[0].RPerUm * 1000
	cw := tk.Wires[0].CPerUm * 1000
	stage1 := 0.1*(cw+comp.Cin()) + rw*(cw/2+comp.Cin())
	stage2 := comp.Rout()*(comp.Cout()+cw+35) + rw*(cw/2+35)
	want := stage1 + stage2

	res, err := (&Elmore{}).Evaluate(ctree.NewTree(a), fastCorner(tk))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rise[int(s)]
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("latency=%v want %v", got, want)
	}
}

func TestElmoreSymmetricTreeZeroSkew(t *testing.T) {
	tk := tech.Default45()
	a := newArena(tk, 0.1)
	mid := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(500, 0))
	a.AddSink(mid, geom.Pt(500, 400), 35, "a")
	a.AddSink(mid, geom.Pt(500, -400), 35, "b")
	tr := ctree.NewTree(a)
	res, err := (&Elmore{}).Evaluate(tr, fastCorner(tk))
	if err != nil {
		t.Fatal(err)
	}
	if sk := res.Skew(); sk > 1e-9 {
		t.Errorf("symmetric tree skew=%v want 0", sk)
	}
}

func TestSlowCornerSlower(t *testing.T) {
	tk := tech.Default45()
	a := newArena(tk, 0.1)
	s := int(a.AddSink(a.Root(), geom.Pt(2000, 0), 35, "s"))
	a.SetBuf(a.InsertOnEdge(int32(s), 1000, ctree.Buffer), tech.Composite{Type: tk.Inverters[1], N: 8})
	tr := ctree.NewTree(a)
	fast, _ := (&Elmore{}).Evaluate(tr, tk.Reference())
	slow, _ := (&Elmore{}).Evaluate(tr, tk.Worst())
	if slow.Rise[s] <= fast.Rise[s] {
		t.Errorf("1.0V (%v) should be slower than 1.2V (%v)", slow.Rise[s], fast.Rise[s])
	}
}

func TestTwoPoleBetweenZeroAndElmore(t *testing.T) {
	// For RC trees the 50% delay is below the Elmore bound; D2M respects
	// that (it equals Elmore·ln2·m1/√m2 with m1/√m2 <= 1 at far nodes the
	// inequality can flip, so just check sanity: positive and not wildly
	// above Elmore).
	tk := tech.Default45()
	a := singleWire(tk)
	sink := int(a.Sinks()[0])
	tr := ctree.NewTree(a)
	el, _ := (&Elmore{}).Evaluate(tr, fastCorner(tk))
	tp, _ := (&TwoPole{}).Evaluate(tr, fastCorner(tk))
	if tp.Rise[sink] <= 0 {
		t.Fatalf("two-pole delay %v must be positive", tp.Rise[sink])
	}
	if tp.Rise[sink] > el.Rise[sink]*1.05 {
		t.Errorf("two-pole %v should not exceed Elmore %v", tp.Rise[sink], el.Rise[sink])
	}
}

func TestTwoPoleSymmetricZeroSkew(t *testing.T) {
	tk := tech.Default45()
	a := newArena(tk, 0.1)
	mid := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(500, 0))
	a.AddSink(mid, geom.Pt(500, 400), 35, "a")
	a.AddSink(mid, geom.Pt(500, -400), 35, "b")
	tr := ctree.NewTree(a)
	res, _ := (&TwoPole{}).Evaluate(tr, fastCorner(tk))
	if sk := res.Skew(); sk > 1e-9 {
		t.Errorf("symmetric tree skew=%v want 0", sk)
	}
}

func TestSlewDetection(t *testing.T) {
	tk := tech.Default45()
	// A very long unbuffered wire must violate the 100 ps slew limit.
	far := newArena(tk, 0.5)
	far.AddSink(far.Root(), geom.Pt(20000, 0), 35, "far")
	res, _ := (&Elmore{}).Evaluate(ctree.NewTree(far), fastCorner(tk))
	if res.SlewViol == 0 {
		t.Errorf("20 mm unbuffered wire should violate slew (max=%v)", res.MaxSlew)
	}
	// A short wire must not.
	near := newArena(tk, 0.05)
	near.AddSink(near.Root(), geom.Pt(200, 0), 35, "near")
	res2, _ := (&Elmore{}).Evaluate(ctree.NewTree(near), fastCorner(tk))
	if res2.SlewViol != 0 {
		t.Errorf("200 µm wire should be clean, max slew %v", res2.MaxSlew)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Rise: map[int]float64{1: 10, 2: 14, 3: 12},
		Fall: map[int]float64{1: 11, 2: 13, 3: 19},
	}
	min, max := r.MinMaxRise()
	if min != 10 || max != 14 {
		t.Errorf("rise min/max = %v/%v", min, max)
	}
	if sk := r.Skew(); sk != 8 { // fall skew 19-11 dominates
		t.Errorf("skew=%v want 8", sk)
	}
}

func TestSnakeIncreasesDelay(t *testing.T) {
	tk := tech.Default45()
	a := singleWire(tk)
	s := a.Sinks()[0]
	tr := ctree.NewTree(a)
	base, _ := (&Elmore{}).Evaluate(tr, fastCorner(tk))
	a.Snake[s] = 500
	snaked, _ := (&Elmore{}).Evaluate(tr, fastCorner(tk))
	if snaked.Rise[int(s)] <= base.Rise[int(s)] {
		t.Errorf("snaking should slow the sink: %v vs %v", snaked.Rise[int(s)], base.Rise[int(s)])
	}
}

func TestNarrowWireSlower(t *testing.T) {
	// Downsizing slows the net when wire resistance matters (long wire,
	// strong driver). On short, source-dominated nets the capacitance
	// saving can win instead — which is why the wiresizing pass calibrates
	// its impact with measurement probes rather than assuming a sign.
	tk := tech.Default45()
	a := newArena(tk, 0.05)
	s := a.AddSink(a.Root(), geom.Pt(5000, 0), 35, "s")
	tr := ctree.NewTree(a)
	base, _ := (&Elmore{}).Evaluate(tr, fastCorner(tk))
	a.WidthIdx[s] = int32(tk.Narrow())
	narrow, _ := (&Elmore{}).Evaluate(tr, fastCorner(tk))
	if narrow.Rise[int(s)] <= base.Rise[int(s)] {
		t.Errorf("narrow wire should be slower here: %v vs %v", narrow.Rise[int(s)], base.Rise[int(s)])
	}
}
