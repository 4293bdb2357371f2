package analysis

import (
	"math"
	"math/rand"
	"testing"

	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// randomBufferedTree builds a random tree with random buffers for
// property-based checks.
func randomBufferedTree(rng *rand.Rand, tk *tech.Tech) *ctree.Tree {
	tr := ctree.New(tk, geom.Pt(0, 0), 0.05+rng.Float64()*0.2)
	parents := []*ctree.Node{tr.Root}
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	for i := 0; i < 20+rng.Intn(30); i++ {
		p := parents[rng.Intn(len(parents))]
		loc := geom.Pt(rng.Float64()*4000, rng.Float64()*4000)
		switch rng.Intn(4) {
		case 0:
			tr.AddSink(p, loc, 15+rng.Float64()*40, "")
		case 1:
			b := tr.AddChild(p, ctree.Buffer, loc)
			c := comp
			b.Buf = &c
			parents = append(parents, b)
		default:
			parents = append(parents, tr.AddChild(p, ctree.Internal, loc))
		}
	}
	if len(tr.Sinks()) == 0 {
		tr.AddSink(tr.Root, geom.Pt(100, 100), 30, "fallback")
	}
	return tr
}

// TestElmoreSubdivisionInvariance: the Elmore delay of a distributed wire is
// exact under π-segmentation, so refining MaxSeg must not change results.
func TestElmoreSubdivisionInvariance(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 25; iter++ {
		tr := randomBufferedTree(rng, tk)
		coarse, err := (&Elmore{MaxSeg: 1e9}).Evaluate(tr, tk.Reference())
		if err != nil {
			t.Fatal(err)
		}
		fine, err := (&Elmore{MaxSeg: 25}).Evaluate(tr, tk.Reference())
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range coarse.Rise {
			if f := fine.Rise[id]; math.Abs(f-v) > 1e-6*(1+math.Abs(v)) {
				t.Fatalf("iter %d sink %d: coarse %v fine %v", iter, id, v, f)
			}
		}
	}
}

// TestMomentOrdering: on every RC node the first moment bounds the D2M
// delay (m1/sqrt(m2) <= 1 would flip only on pathological non-tree nets),
// and both are non-negative.
func TestMomentOrdering(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 25; iter++ {
		tr := randomBufferedTree(rng, tk)
		el, _ := (&Elmore{}).Evaluate(tr, tk.Reference())
		tp, _ := (&TwoPole{}).Evaluate(tr, tk.Reference())
		for id, m1 := range el.Rise {
			d := tp.Rise[id]
			if d < 0 || m1 < 0 {
				t.Fatalf("negative delay: m1=%v d2m=%v", m1, d)
			}
			if d > m1*1.01+1e-9 {
				t.Fatalf("D2M %v exceeds Elmore bound %v", d, m1)
			}
		}
	}
}

// TestMonotoneInCapacitance: adding sink load must not make any sink faster
// under either closed-form model.
func TestMonotoneInCapacitance(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 15; iter++ {
		tr := randomBufferedTree(rng, tk)
		sinks := tr.Sinks()
		before, _ := (&Elmore{}).Evaluate(tr, tk.Reference())
		victim := sinks[rng.Intn(len(sinks))]
		victim.SinkCap += 100
		after, _ := (&Elmore{}).Evaluate(tr, tk.Reference())
		for id, v := range before.Rise {
			if after.Rise[id] < v-1e-9 {
				t.Fatalf("iter %d: sink %d got faster after adding load", iter, id)
			}
		}
	}
}

// TestStageSlewConsistency: the per-stage slews must cover the network max.
func TestStageSlewConsistency(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 15; iter++ {
		tr := randomBufferedTree(rng, tk)
		res, _ := (&Elmore{}).Evaluate(tr, tk.Reference())
		worst := 0.0
		for _, v := range res.StageSlew {
			if v > worst {
				worst = v
			}
		}
		if math.Abs(worst-res.MaxSlew) > 1e-9 {
			t.Fatalf("iter %d: stage slews max %v != MaxSlew %v", iter, worst, res.MaxSlew)
		}
	}
}
