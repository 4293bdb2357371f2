package dme

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

func randomSinks(rng *rand.Rand, n int, die geom.Rect) []Sink {
	out := make([]Sink, n)
	for i := range out {
		out[i] = Sink{
			Loc:  geom.Pt(die.MinX+rng.Float64()*die.W(), die.MinY+rng.Float64()*die.H()),
			Cap:  20 + rng.Float64()*30,
			Name: fmt.Sprintf("s%d", i),
		}
	}
	return out
}

// buildZST constructs a zero-skew tree and returns its handle for the
// Elmore analyses.
func buildZST(t *testing.T, tk *tech.Tech, source geom.Point, sinks []Sink, opt Options) *ctree.Tree {
	t.Helper()
	return ctree.NewTree(BuildZSTArena(tk, source, sinks, opt))
}

func TestZeroElmoreSkewProperty(t *testing.T) {
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 5000, 5000)
	rng := rand.New(rand.NewSource(1))
	for _, topo := range []string{"nn", "mmm"} {
		for _, n := range []int{1, 2, 3, 7, 25, 80} {
			sinks := randomSinks(rng, n, die)
			tr := buildZST(t, tk, geom.Pt(0, 2500), sinks, Options{Topology: topo})
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", topo, n, err)
			}
			if got := len(tr.Arena().Sinks()); got != n {
				t.Fatalf("%s/%d: %d sinks in tree", topo, n, got)
			}
			res, err := (&analysis.Elmore{}).Evaluate(tr, tk.Reference())
			if err != nil {
				t.Fatal(err)
			}
			_, max := res.MinMaxRise()
			if sk := res.Skew(); sk > 1e-6*math.Max(max, 1) {
				t.Errorf("%s/%d sinks: Elmore skew=%v ps (max latency %v)", topo, n, sk, max)
			}
		}
	}
}

func TestAllSinksPreserved(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(2))
	sinks := randomSinks(rng, 60, geom.NewRect(0, 0, 8000, 8000))
	tr := buildZST(t, tk, geom.Pt(0, 0), sinks, Options{})
	found := map[string]bool{}
	a := tr.Arena()
	for _, s := range a.Sinks() {
		found[a.Name[s]] = true
	}
	for _, s := range sinks {
		if !found[s.Name] {
			t.Errorf("sink %s missing from tree", s.Name)
		}
	}
}

func TestWirelengthSanity(t *testing.T) {
	// Total wirelength must be at least the bounding half-perimeter and no
	// worse than a star from the center.
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(3))
	sinks := randomSinks(rng, 100, geom.NewRect(0, 0, 10000, 10000))
	tr := buildZST(t, tk, geom.Pt(5000, 0), sinks, Options{})
	wl := tr.Arena().Wirelength()

	var star float64
	center := geom.Pt(5000, 5000)
	for _, s := range sinks {
		star += center.Manhattan(s.Loc)
	}
	if wl > star {
		t.Errorf("ZST wirelength %v exceeds star topology %v", wl, star)
	}
	if wl < 10000 { // cannot connect a 10x10 mm spread with less
		t.Errorf("wirelength %v implausibly small", wl)
	}
}

func TestNNBeatsOrMatchesMMMOnSmall(t *testing.T) {
	// Not a strict theorem, but on uniform instances greedy NN clustering
	// should not be drastically worse than bisection; this guards against
	// regressions that break one of the two paths.
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(4))
	sinks := randomSinks(rng, 64, geom.NewRect(0, 0, 4000, 4000))
	nn := buildZST(t, tk, geom.Pt(0, 0), sinks, Options{Topology: "nn"})
	mmm := buildZST(t, tk, geom.Pt(0, 0), sinks, Options{Topology: "mmm"})
	if nn.Arena().Wirelength() > 1.5*mmm.Arena().Wirelength() {
		t.Errorf("nn wirelength %v vs mmm %v: ratio too high", nn.Arena().Wirelength(), mmm.Arena().Wirelength())
	}
	if mmm.Arena().Wirelength() > 1.5*nn.Arena().Wirelength() {
		t.Errorf("mmm wirelength %v vs nn %v: ratio too high", mmm.Arena().Wirelength(), nn.Arena().Wirelength())
	}
}

func TestExtensionSolvesBalance(t *testing.T) {
	r, c := 0.0001, 0.3
	for _, tc := range []struct{ dt, cap float64 }{
		{10, 100}, {1, 35}, {200, 500}, {0, 100},
	} {
		l := extension(tc.dt, tc.cap, r, c)
		got := r * l * (c*l/2 + tc.cap)
		if math.Abs(got-tc.dt) > 1e-9 {
			t.Errorf("extension(%v,%v)=%v gives delay %v", tc.dt, tc.cap, l, got)
		}
	}
}

func TestMergeBalancesAsymmetricLoads(t *testing.T) {
	tk := tech.Default45()
	w := tk.Wires[0]
	a := subtree{loc: geom.Pt(0, 0), cap: 500, delay: 0}   // heavy
	b := subtree{loc: geom.Pt(1000, 0), cap: 20, delay: 0} // light
	m := mergeKernel(a, b, w, Options{})
	// Tap must sit closer to the heavy side.
	if m.loc.Manhattan(a.loc) >= m.loc.Manhattan(b.loc) {
		t.Errorf("tap %v should favor the heavy subtree at %v", m.loc, a.loc)
	}
	// Both sides must see equal Elmore delay.
	x := m.loc.Manhattan(a.loc)
	da := a.delay + w.RPerUm*x*(w.CPerUm*x/2+a.cap)
	lb := m.loc.Manhattan(b.loc) + m.snakeR
	db := b.delay + w.RPerUm*lb*(w.CPerUm*lb/2+b.cap)
	if math.Abs(da-db) > 1e-9 {
		t.Errorf("unbalanced merge: %v vs %v", da, db)
	}
}

func TestMergeSnakesWhenOneSideTooFast(t *testing.T) {
	tk := tech.Default45()
	w := tk.Wires[0]
	// a is much slower: even tapping at a, b needs extra wire.
	a := subtree{loc: geom.Pt(0, 0), cap: 100, delay: 500}
	b := subtree{loc: geom.Pt(100, 0), cap: 100, delay: 0}
	m := mergeKernel(a, b, w, Options{})
	if m.loc != a.loc {
		t.Errorf("tap should collapse onto the slow side, got %v", m.loc)
	}
	if m.snakeR <= 0 {
		t.Error("expected snaking on the fast side")
	}
	lb := 100 + m.snakeR
	db := b.delay + w.RPerUm*lb*(w.CPerUm*lb/2+b.cap)
	if math.Abs(db-a.delay) > 1e-9 {
		t.Errorf("snaked side delay %v want %v", db, a.delay)
	}
}

func TestCoincidentSinks(t *testing.T) {
	tk := tech.Default45()
	sinks := []Sink{
		{Loc: geom.Pt(100, 100), Cap: 35, Name: "a"},
		{Loc: geom.Pt(100, 100), Cap: 35, Name: "b"},
		{Loc: geom.Pt(100, 100), Cap: 20, Name: "c"},
	}
	tr := buildZST(t, tk, geom.Pt(0, 0), sinks, Options{})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := (&analysis.Elmore{}).Evaluate(tr, tk.Reference())
	// The netlist extractor clamps zero-length edges to 1e-9 kΩ, which
	// leaves sub-femtosecond noise.
	if sk := res.Skew(); sk > 1e-6 {
		t.Errorf("coincident sinks skew=%v", sk)
	}
}

func TestSingleSink(t *testing.T) {
	tk := tech.Default45()
	tr := buildZST(t, tk, geom.Pt(0, 0), []Sink{{Loc: geom.Pt(500, 700), Cap: 35, Name: "only"}}, Options{})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if wl := tr.Arena().Wirelength(); wl != 1200 {
		t.Errorf("wirelength=%v want 1200", wl)
	}
}

func TestLargeMMMScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(5))
	sinks := randomSinks(rng, 20000, geom.NewRect(0, 0, 4200, 3000))
	tr := buildZST(t, tk, geom.Pt(0, 0), sinks, Options{})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := (&analysis.Elmore{MaxSeg: 1e9}).Evaluate(tr, tk.Reference())
	_, max := res.MinMaxRise()
	if sk := res.Skew(); sk > 1e-6*max {
		t.Errorf("20K-sink ZST skew=%v", sk)
	}
}
