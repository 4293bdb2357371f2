package analysis

import (
	"reflect"
	"testing"

	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// batchFixture builds a three-stage buffered tree with branching, snakes and
// mixed widths, so the batched kernels see multi-stage arrival chaining,
// load pins, and sink maps.
func batchFixture(tk *tech.Tech) *ctree.Tree {
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	m := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(800, 0))
	a.SetBuf(a.InsertOnEdge(m, 400, ctree.Buffer), tech.Composite{Type: tk.Inverters[1], N: 4})
	s1 := a.AddSink(m, geom.Pt(1400, 300), 35, "s1")
	a.WidthIdx[s1] = 1
	s2 := a.AddSink(m, geom.Pt(1200, -500), 28, "s2")
	a.Snake[s2] = 90
	far := a.AddSink(m, geom.Pt(2600, 100), 40, "far")
	a.SetBuf(a.InsertOnEdge(far, 900, ctree.Buffer), tech.Composite{Type: tk.Inverters[0], N: 2})
	return ctree.NewTree(a)
}

func batchCornerSets(t *testing.T, tk *tech.Tech) map[string][]tech.Corner {
	t.Helper()
	sets := map[string][]tech.Corner{}
	for _, name := range []string{"pvt5", "mc:8:1"} {
		cs, err := corners.Build(name, tk)
		if err != nil {
			t.Fatalf("corners.Build(%q): %v", name, err)
		}
		sets[name] = cs.Corners
	}
	return sets
}

// TestBatchedCornersBitIdentical: EvaluateCorners must reproduce a serial
// per-corner Evaluate loop bit for bit, for both closed-form evaluators and
// both generated corner-set families.
func TestBatchedCornersBitIdentical(t *testing.T) {
	tk := tech.Default45()
	tr := batchFixture(tk)
	for setName, cs := range batchCornerSets(t, tk) {
		for _, ev := range []Evaluator{&Elmore{}, &TwoPole{}} {
			var want []*Result
			for _, c := range cs {
				r, err := ev.Evaluate(tr, c)
				if err != nil {
					t.Fatalf("%s/%s serial: %v", ev.Name(), setName, err)
				}
				want = append(want, r)
			}
			got, err := ev.EvaluateCorners(tr, cs)
			if err != nil {
				t.Fatalf("%s/%s batch: %v", ev.Name(), setName, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d results, want %d", ev.Name(), setName, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s/%s corner %q: batched result differs from serial",
						ev.Name(), setName, cs[i].Name)
				}
			}
		}
	}
}

// TestBatchKernelsMatchSerial: the raw batched recurrences agree bit for bit
// with the single-corner kernels at every node, for arbitrary derates.
func TestBatchKernelsMatchSerial(t *testing.T) {
	tk := tech.Default45()
	tr := batchFixture(tk)
	net := extract(t, tr.Arena(), 100)
	cs := []tech.Corner{
		{Name: "a", Vdd: 1.1},
		{Name: "b", Vdd: 1.0, RDerate: 1.17, CDerate: 0.93},
		{Name: "c", Vdd: 0.9, RDerate: 0.85, CDerate: 1.21},
	}
	K := len(cs)
	rd := make([]float64, K)
	rs := make([]float64, K)
	csc := make([]float64, K)
	for _, s := range net.Stages {
		n := len(s.R)
		cornerDerates(net, s, cs, rd, rs, csc)
		cdown := make([]float64, K*n)
		d := make([]float64, K*n)
		stageElmoreBatchInto(s, rd, rs, csc, cdown, d)
		b := make([]float64, K*n)
		m1 := make([]float64, K*n)
		m2 := make([]float64, K*n)
		stageMomentsBatchInto(s, rd, rs, csc, cdown, b, m1, m2)
		for k, c := range cs {
			wantD := stageElmoreScaled(s, rd[k], c.RScale(), c.CScale())
			if !reflect.DeepEqual(d[k*n:(k+1)*n], wantD) {
				t.Fatalf("stage %d corner %d: batched Elmore differs", s.Index, k)
			}
			w1, w2 := stageMomentsScaled(s, rd[k], c.RScale(), c.CScale())
			if !reflect.DeepEqual(m1[k*n:(k+1)*n], w1) || !reflect.DeepEqual(m2[k*n:(k+1)*n], w2) {
				t.Fatalf("stage %d corner %d: batched moments differ", s.Index, k)
			}
			// And the windowing helper agrees with the max of the vector.
			max := 0.0
			for _, v := range wantD {
				if v > max {
					max = v
				}
			}
			if got := StageElmoreMaxAt(s, rd[k], c); got != max {
				t.Fatalf("stage %d corner %d: StageElmoreMaxAt %v != %v", s.Index, k, got, max)
			}
		}
	}
}

// stageElmoreScaled is the single-corner Elmore recurrence the batched
// kernel must reproduce: the delay (ps) from the stage driver input to every
// RC node, with wire resistance scaled by rs and capacitance by cs and the
// driver contributing rd·Ctotal.
func stageElmoreScaled(s *Stage, rd, rs, cs float64) []float64 {
	n := len(s.R)
	cdown := make([]float64, n)
	for i := 0; i < n; i++ {
		cdown[i] = s.C[i] * cs
	}
	for i := n - 1; i >= 1; i-- {
		cdown[s.Par[i]] += cdown[i]
	}
	d := make([]float64, n)
	d[0] = rd * cdown[0]
	for i := 1; i < n; i++ {
		d[i] = d[s.Par[i]] + s.R[i]*rs*cdown[i]
	}
	return d
}

// stageMomentsScaled is the single-corner reference for the batched moment
// kernel: m1 and m2 at every RC node with the driver resistance folded in
// as a virtual root resistor.
func stageMomentsScaled(s *Stage, rd, rs, cs float64) (m1, m2 []float64) {
	n := len(s.R)
	m1 = stageElmoreScaled(s, rd, rs, cs)
	// b[i] = Σ_{k in subtree(i)} C_k · m1_k
	b := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		b[i] += s.C[i] * cs * m1[i]
		if s.Par[i] >= 0 {
			b[s.Par[i]] += b[i]
		}
	}
	m2 = make([]float64, n)
	m2[0] = rd * b[0]
	for i := 1; i < n; i++ {
		m2[i] = m2[s.Par[i]] + s.R[i]*rs*b[i]
	}
	return m1, m2
}
