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
func buildTree(tk *tech.Tech) (*ctree.Arena, []int32) {
	tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	a := tr.AddChildL(tr.Root(), ctree.Internal, geom.Pt(100, 0))
	b := tr.AddChildL(tr.Root(), ctree.Internal, geom.Pt(0, 100))
	s1 := tr.AddSink(a, geom.Pt(200, 0), 30, "s1")
	s2 := tr.AddSink(a, geom.Pt(100, 100), 30, "s2")
	s3 := tr.AddSink(b, geom.Pt(0, 200), 30, "s3")
	return tr, []int32{a, b, s1, s2, s3}
}

func resultWith(lat map[int]float64) *analysis.Result {
	return &analysis.Result{Rise: lat, Fall: lat}
}

func TestSinkSlacksDefinition1(t *testing.T) {
	tk := tech.Default45()
	tr, ns := buildTree(tk)
	s1, s2, s3 := ns[2], ns[3], ns[4]
	lat := map[int]float64{int(s1): 100, int(s2): 130, int(s3): 110}
	s := Compute(tr, []*analysis.Result{resultWith(lat)})
	// Tmax=130: a sink edge's slack is the sink's Tmax − Ts.
	for _, c := range []struct {
		n    int32
		want float64
	}{{s1, 30}, {s2, 0}, {s3, 20}} {
		if got := s.EdgeSlow[int(c.n)]; got != c.want {
			t.Errorf("%s slow slack %v want %v", tr.Name[c.n], got, c.want)
		}
	}
}

func TestEdgeSlacksLemma1(t *testing.T) {
	tk := tech.Default45()
	tr, ns := buildTree(tk)
	a, b, s1, s2, s3 := ns[0], ns[1], ns[2], ns[3], ns[4]
	lat := map[int]float64{int(s1): 100, int(s2): 130, int(s3): 110}
	s := Compute(tr, []*analysis.Result{resultWith(lat)})
	// Edge a feeds s1 (slow 30) and s2 (slow 0) -> min 0.
	if s.EdgeSlow[int(a)] != 0 {
		t.Errorf("edge a slow=%v want 0", s.EdgeSlow[int(a)])
	}
	if s.EdgeSlow[int(b)] != 20 {
		t.Errorf("edge b slow=%v want 20", s.EdgeSlow[int(b)])
	}
}

func TestLemma2Monotonicity(t *testing.T) {
	// Child edge slacks dominate parent edge slacks on random trees with
	// random latencies.
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
		parents := []int32{tr.Root()}
		for i := 0; i < 30; i++ {
			p := parents[rng.Intn(len(parents))]
			loc := geom.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
			if rng.Intn(3) == 0 {
				tr.AddSink(p, loc, 30, "")
			} else {
				parents = append(parents, tr.AddChildL(p, ctree.Internal, loc))
			}
		}
		sinks := tr.Sinks()
		if len(sinks) == 0 {
			continue
		}
		lat := map[int]float64{}
		for _, s := range sinks {
			lat[int(s)] = 100 + rng.Float64()*50
		}
		s := Compute(tr, []*analysis.Result{resultWith(lat)})
		tr.PreOrder(func(n int32) {
			if tr.Parent[n] < 0 || tr.Parent[tr.Parent[n]] < 0 {
				return
			}
			if s.EdgeSlow[int(n)] < s.EdgeSlow[int(tr.Parent[n])]-1e-12 {
				t.Fatalf("Lemma 2 violated (slow): edge %d %v < parent %v",
					int(n), s.EdgeSlow[int(n)], s.EdgeSlow[int(tr.Parent[n])])
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
		tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
		parents := []int32{tr.Root()}
		for i := 0; i < 25; i++ {
			p := parents[rng.Intn(len(parents))]
			loc := geom.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
			if rng.Intn(3) == 0 {
				tr.AddSink(p, loc, 30, "")
			} else {
				parents = append(parents, tr.AddChildL(p, ctree.Internal, loc))
			}
		}
		sinks := tr.Sinks()
		if len(sinks) < 2 {
			continue
		}
		lat := map[int]float64{}
		for _, s := range sinks {
			lat[int(s)] = 100 + rng.Float64()*60
		}
		s := Compute(tr, []*analysis.Result{resultWith(lat)})
		tmax := math.Inf(-1)
		for _, v := range lat {
			tmax = math.Max(tmax, v)
		}
		for _, sk := range sinks {
			adj := lat[int(sk)]
			for cur := sk; tr.Parent[cur] >= 0; cur = tr.Parent[cur] {
				delta := s.EdgeSlow[int(cur)]
				if tr.Parent[tr.Parent[cur]] >= 0 {
					delta -= s.EdgeSlow[int(tr.Parent[cur])]
				}
				adj += delta
			}
			if math.Abs(adj-tmax) > 1e-9 {
				t.Fatalf("iter %d: sink %d adjusted latency %v != Tmax %v",
					iter, int(sk), adj, tmax)
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
		Rise: map[int]float64{int(s1): 100, int(s2): 120, int(s3): 120},
		Fall: map[int]float64{int(s1): 125, int(s2): 120, int(s3): 120},
	}
	s := Compute(tr, []*analysis.Result{r})
	if got := s.EdgeSlow[int(s1)]; got != 0 {
		t.Errorf("s1 merged slow slack=%v want 0 (falling corner limits it)", got)
	}
	// Two corners: the second corner further restricts.
	r2 := &analysis.Result{
		Rise: map[int]float64{int(s1): 110, int(s2): 110, int(s3): 112},
		Fall: map[int]float64{int(s1): 110, int(s2): 110, int(s3): 112},
	}
	s2c := Compute(tr, []*analysis.Result{r, r2})
	if s2c.EdgeSlow[int(s3)] > 0 {
		t.Errorf("corner 2 should zero s3's slow slack, got %v", s2c.EdgeSlow[int(s3)])
	}
}

func TestRootEdgeSlackIsZero(t *testing.T) {
	// The trunk sees every sink, so its slack is exactly Tmax−Tmax = 0.
	tk := tech.Default45()
	tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	trunk := tr.AddChildL(tr.Root(), ctree.Internal, geom.Pt(100, 100))
	tr.AddSink(trunk, geom.Pt(200, 100), 30, "a")
	tr.AddSink(trunk, geom.Pt(100, 200), 30, "b")
	sinks := tr.Sinks()
	lat := map[int]float64{int(sinks[0]): 90, int(sinks[1]): 140}
	s := Compute(tr, []*analysis.Result{resultWith(lat)})
	if s.EdgeSlow[int(trunk)] != 0 {
		t.Errorf("trunk slack %v want 0", s.EdgeSlow[int(trunk)])
	}
}

func TestGradient(t *testing.T) {
	tk := tech.Default45()
	tr, ns := buildTree(tk)
	s1, s2, s3 := ns[2], ns[3], ns[4]
	lat := map[int]float64{int(s1): 100, int(s2): 130, int(s3): 110}
	s := Compute(tr, []*analysis.Result{resultWith(lat)})
	if g := s.Gradient(int(s2)); g != 0 {
		t.Errorf("critical sink gradient=%v want 0", g)
	}
	if g := s.Gradient(int(s1)); g != 1 {
		t.Errorf("max-slack sink gradient=%v want 1", g)
	}
	for _, n := range ns {
		g := s.Gradient(int(n))
		if g < 0 || g > 1 {
			t.Errorf("gradient out of range: %v", g)
		}
	}
}
