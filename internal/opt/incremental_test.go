package opt

import (
	"reflect"
	"testing"

	"contango/internal/corners"
	"contango/internal/eval"
	"contango/internal/spice"
	"contango/internal/tech"
)

// TestPassesWithIncrementalEngine runs real optimization passes with the
// incremental transient evaluator installed as Context.Eng — the production
// configuration — and checks they behave exactly like the full-evaluation
// passes: same metrics trajectory, no violations introduced.
func TestPassesWithIncrementalEngine(t *testing.T) {
	full, _ := smallNetwork(t)
	incr, _ := smallNetwork(t)
	incr.Eng = spice.NewIncremental(incr.Tree, spice.New(), 2)

	for _, cx := range []*Context{full, incr} {
		if err := TopDownWiresnaking(cx); err != nil {
			t.Fatal(err)
		}
		if err := TopDownWiresizing(cx); err != nil {
			t.Fatal(err)
		}
	}
	_, mf, err := full.CNE()
	if err != nil {
		t.Fatal(err)
	}
	_, mi, err := incr.CNE()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mf, mi) {
		t.Errorf("incremental cascade diverged from full: %v vs %v", mf, mi)
	}
	ie := incr.Eng.(*spice.Incremental)
	if ie.Stats.StagesHit == 0 {
		t.Error("incremental engine never reused a stage transient")
	}
}

// TestIncrementalCascadeParity: the cascade passes driven by the cached,
// paired-edge incremental engine must end in exactly the tree metrics the
// whole-tree engine reaches, across derated pvt5 corners and at every
// worker budget — including the GOMAXPROCS default, so running the suite
// under -cpu 1,2,4 exercises each scheduling shape.
func TestIncrementalCascadeParity(t *testing.T) {
	set, err := corners.Build("pvt5", tech.Default45())
	if err != nil {
		t.Fatal(err)
	}
	network := func() *Context {
		cx, _ := smallNetwork(t)
		cx.Tree.Tech = set.Apply(cx.Tree.Tech)
		return cx
	}
	cascade := func(cx *Context) eval.Metrics {
		for _, pass := range []func(*Context) error{TopDownWiresnaking, TopDownWiresizing, BufferSizing, BottomLevelTuning} {
			if err := pass(cx); err != nil {
				t.Fatal(err)
			}
		}
		_, m, err := cx.CNE()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := cascade(network())
	for _, par := range []int{0, 1, 3} {
		cx := network()
		cx.Eng = spice.NewIncremental(cx.Tree, spice.New(), par)
		if got := cascade(cx); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: incremental cascade ends at %v, whole-tree engine at %v", par, got, want)
		}
	}
}

// TestCNEUsesCornerEvaluator: Context.CNE must hand all corners to the
// evaluator in one EvaluateCorners call (one Runs increment per corner,
// shared extraction inside).
func TestCNEUsesCornerEvaluator(t *testing.T) {
	cx, tk := smallNetwork(t)
	eng := spice.New()
	ie := spice.NewIncremental(cx.Tree, eng, 1)
	cx.Eng = ie
	if _, _, err := cx.CNE(); err != nil {
		t.Fatal(err)
	}
	if eng.Runs != len(tk.Corners) {
		t.Errorf("Runs=%d want %d (one per corner)", eng.Runs, len(tk.Corners))
	}
	if ie.Stats.Evals != len(tk.Corners) {
		t.Errorf("Evals=%d want %d", ie.Stats.Evals, len(tk.Corners))
	}
}
