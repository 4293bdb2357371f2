package slack

import (
	"math"
	"math/rand"
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// buildTree makes a small fixed tree:
//
//	root -> a -> s1, s2
//	     -> b -> s3
func buildTree(tk *tech.Tech) (*ctree.Tree, []*ctree.Node) {
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	a := tr.AddChild(tr.Root, ctree.Internal, geom.Pt(100, 0))
	b := tr.AddChild(tr.Root, ctree.Internal, geom.Pt(0, 100))
	s1 := tr.AddSink(a, geom.Pt(200, 0), 30, "s1")
	s2 := tr.AddSink(a, geom.Pt(100, 100), 30, "s2")
	s3 := tr.AddSink(b, geom.Pt(0, 200), 30, "s3")
	return tr, []*ctree.Node{a, b, s1, s2, s3}
}

func resultWith(lat map[int]float64) *analysis.Result {
	return &analysis.Result{Rise: lat, Fall: lat}
}

func TestSinkSlacksDefinition1(t *testing.T) {
	tk := tech.Default45()
	tr, ns := buildTree(tk)
	s1, s2, s3 := ns[2], ns[3], ns[4]
	lat := map[int]float64{s1.ID: 100, s2.ID: 130, s3.ID: 110}
	s := Compute(tr, []*analysis.Result{resultWith(lat)})
	// Tmax=130: a sink edge's slack is the sink's Tmax − Ts.
	for _, c := range []struct {
		n    *ctree.Node
		want float64
	}{{s1, 30}, {s2, 0}, {s3, 20}} {
		if got := s.EdgeSlow[c.n.ID]; got != c.want {
			t.Errorf("%s slow slack %v want %v", c.n.Name, got, c.want)
		}
	}
}

func TestEdgeSlacksLemma1(t *testing.T) {
	tk := tech.Default45()
	tr, ns := buildTree(tk)
	a, b, s1, s2, s3 := ns[0], ns[1], ns[2], ns[3], ns[4]
	lat := map[int]float64{s1.ID: 100, s2.ID: 130, s3.ID: 110}
	s := Compute(tr, []*analysis.Result{resultWith(lat)})
	// Edge a feeds s1 (slow 30) and s2 (slow 0) -> min 0.
	if s.EdgeSlow[a.ID] != 0 {
		t.Errorf("edge a slow=%v want 0", s.EdgeSlow[a.ID])
	}
	if s.EdgeSlow[b.ID] != 20 {
		t.Errorf("edge b slow=%v want 20", s.EdgeSlow[b.ID])
	}
}

func TestLemma2Monotonicity(t *testing.T) {
	// Child edge slacks dominate parent edge slacks on random trees with
	// random latencies.
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
		parents := []*ctree.Node{tr.Root}
		for i := 0; i < 30; i++ {
			p := parents[rng.Intn(len(parents))]
			loc := geom.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
			if rng.Intn(3) == 0 {
				tr.AddSink(p, loc, 30, "")
			} else {
				parents = append(parents, tr.AddChild(p, ctree.Internal, loc))
			}
		}
		sinks := tr.Sinks()
		if len(sinks) == 0 {
			continue
		}
		lat := map[int]float64{}
		for _, s := range sinks {
			lat[s.ID] = 100 + rng.Float64()*50
		}
		s := Compute(tr, []*analysis.Result{resultWith(lat)})
		tr.PreOrder(func(n *ctree.Node) {
			if n.Parent == nil || n.Parent.Parent == nil {
				return
			}
			if s.EdgeSlow[n.ID] < s.EdgeSlow[n.Parent.ID]-1e-12 {
				t.Fatalf("Lemma 2 violated (slow): edge %d %v < parent %v",
					n.ID, s.EdgeSlow[n.ID], s.EdgeSlow[n.Parent.ID])
			}
		})
	}
}

func TestProposition1(t *testing.T) {
	// Slowing every edge down by exactly its budget Δe = Slack_e −
	// Slack_parent(e) (0 for the parent of a root edge) must equalize all
	// sink latencies at Tmax, making skew zero.
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 40; iter++ {
		tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
		parents := []*ctree.Node{tr.Root}
		for i := 0; i < 25; i++ {
			p := parents[rng.Intn(len(parents))]
			loc := geom.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
			if rng.Intn(3) == 0 {
				tr.AddSink(p, loc, 30, "")
			} else {
				parents = append(parents, tr.AddChild(p, ctree.Internal, loc))
			}
		}
		sinks := tr.Sinks()
		if len(sinks) < 2 {
			continue
		}
		lat := map[int]float64{}
		for _, s := range sinks {
			lat[s.ID] = 100 + rng.Float64()*60
		}
		s := Compute(tr, []*analysis.Result{resultWith(lat)})
		tmax := math.Inf(-1)
		for _, v := range lat {
			tmax = math.Max(tmax, v)
		}
		for _, sk := range sinks {
			adj := lat[sk.ID]
			for cur := sk; cur.Parent != nil; cur = cur.Parent {
				delta := s.EdgeSlow[cur.ID]
				if cur.Parent.Parent != nil {
					delta -= s.EdgeSlow[cur.Parent.ID]
				}
				adj += delta
			}
			if math.Abs(adj-tmax) > 1e-9 {
				t.Fatalf("iter %d: sink %d adjusted latency %v != Tmax %v",
					iter, sk.ID, adj, tmax)
			}
		}
	}
}

func TestMultiViewConservativeMerge(t *testing.T) {
	tk := tech.Default45()
	tr, ns := buildTree(tk)
	s1, s2, s3 := ns[2], ns[3], ns[4]
	// Rising: s1 fast. Falling: s1 slow. The merged slow-down slack of s1
	// must be limited by the falling view.
	r := &analysis.Result{
		Rise: map[int]float64{s1.ID: 100, s2.ID: 120, s3.ID: 120},
		Fall: map[int]float64{s1.ID: 125, s2.ID: 120, s3.ID: 120},
	}
	s := Compute(tr, []*analysis.Result{r})
	if got := s.EdgeSlow[s1.ID]; got != 0 {
		t.Errorf("s1 merged slow slack=%v want 0 (falling corner limits it)", got)
	}
	// Two corners: the second corner further restricts.
	r2 := &analysis.Result{
		Rise: map[int]float64{s1.ID: 110, s2.ID: 110, s3.ID: 112},
		Fall: map[int]float64{s1.ID: 110, s2.ID: 110, s3.ID: 112},
	}
	s2c := Compute(tr, []*analysis.Result{r, r2})
	if s2c.EdgeSlow[s3.ID] > 0 {
		t.Errorf("corner 2 should zero s3's slow slack, got %v", s2c.EdgeSlow[s3.ID])
	}
}

func TestRootEdgeSlackIsZero(t *testing.T) {
	// The trunk sees every sink, so its slack is exactly Tmax−Tmax = 0.
	tk := tech.Default45()
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	trunk := tr.AddChild(tr.Root, ctree.Internal, geom.Pt(100, 100))
	tr.AddSink(trunk, geom.Pt(200, 100), 30, "a")
	tr.AddSink(trunk, geom.Pt(100, 200), 30, "b")
	sinks := tr.Sinks()
	lat := map[int]float64{sinks[0].ID: 90, sinks[1].ID: 140}
	s := Compute(tr, []*analysis.Result{resultWith(lat)})
	if s.EdgeSlow[trunk.ID] != 0 {
		t.Errorf("trunk slack %v want 0", s.EdgeSlow[trunk.ID])
	}
}

func TestGradient(t *testing.T) {
	tk := tech.Default45()
	tr, ns := buildTree(tk)
	s1, s2, s3 := ns[2], ns[3], ns[4]
	lat := map[int]float64{s1.ID: 100, s2.ID: 130, s3.ID: 110}
	s := Compute(tr, []*analysis.Result{resultWith(lat)})
	if g := s.Gradient(s2.ID); g != 0 {
		t.Errorf("critical sink gradient=%v want 0", g)
	}
	if g := s.Gradient(s1.ID); g != 1 {
		t.Errorf("max-slack sink gradient=%v want 1", g)
	}
	for _, n := range ns {
		g := s.Gradient(n.ID)
		if g < 0 || g > 1 {
			t.Errorf("gradient out of range: %v", g)
		}
	}
}
