package spice

import (
	"math/rand"
	"reflect"
	"testing"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// deepWideTree builds a buffered tree whose stage graph is both deep and
// wide: a trunk chain of buffers into a hub that fans out to many buffered
// branches, one of which continues as a second long buffer chain. Every
// branch ends in sinks.
func deepWideTree(rng *rand.Rand, tk *tech.Tech) *ctree.Tree {
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	buffer := func(p int32, loc geom.Point) int32 {
		b := a.AddChildL(p, ctree.Buffer, loc)
		a.SetBuf(b, comp)
		return b
	}
	cur := a.Root()
	for i := 0; i < 4+rng.Intn(4); i++ {
		cur = buffer(cur, geom.Pt(float64(i+1)*300, rng.Float64()*100))
	}
	hub := a.AddChildL(cur, ctree.Internal, geom.Pt(a.Loc[cur].X+200, a.Loc[cur].Y))
	for j, fan := 0, 6+rng.Intn(5); j < fan; j++ {
		end := buffer(hub, geom.Pt(a.Loc[hub].X+300+rng.Float64()*200, a.Loc[hub].Y+float64(j-fan/2)*150))
		if j == 0 {
			for k := 0; k < 4+rng.Intn(4); k++ {
				end = buffer(end, geom.Pt(a.Loc[end].X+250, a.Loc[end].Y+rng.Float64()*100))
			}
		}
		for k := 0; k < 1+rng.Intn(2); k++ {
			a.AddSink(end, geom.Pt(a.Loc[end].X+100+rng.Float64()*200, a.Loc[end].Y+rng.Float64()*100), 20+rng.Float64()*30, "")
		}
	}
	return ctree.NewTree(a)
}

// TestDependencySchedulingMatchesSerial: stages scheduled by dependency on
// 2, 4 and 8 workers must give exactly the serial evaluator's results and
// work counters, through a sequence of moves that mixes cache hits and
// misses, on deep and wide staged trees, at the ispd09 corner pair (one
// corner group) and at pvt5 (several groups running concurrently). Run
// with -race, it also exercises the ready queue for data races.
func TestDependencySchedulingMatchesSerial(t *testing.T) {
	base := tech.Default45()
	for _, spec := range []string{"ispd09", "pvt5"} {
		set, err := corners.Build(spec, base)
		if err != nil {
			t.Fatal(err)
		}
		tk := set.Apply(base)
		if groups := len(cornerGroups(tk.Corners)); (spec == "ispd09") != (groups == 1) {
			t.Fatalf("%s: %d corner groups", spec, groups)
		}
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := deepWideTree(rng, tk)
			serial := NewIncremental(tr, New(), 1)
			var parallel []*Incremental
			for _, p := range []int{2, 4, 8} {
				parallel = append(parallel, NewIncremental(tr, New(), p))
			}
			for move := 0; move < 3; move++ {
				want, err := serial.EvaluateCorners(tr, tk.Corners)
				if err != nil {
					t.Fatal(err)
				}
				for _, ie := range parallel {
					got, err := ie.EvaluateCorners(tr, tk.Corners)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d move %d: parallelism %d diverged from serial", spec, seed, move, ie.Parallelism)
					}
					if ie.Stats != serial.Stats || ie.Eng.Runs != serial.Eng.Runs {
						t.Fatalf("%s seed %d move %d: parallelism %d stats %+v (runs %d), serial %+v (runs %d)",
							spec, seed, move, ie.Parallelism, ie.Stats, ie.Eng.Runs, serial.Stats, serial.Eng.Runs)
					}
				}
				randomMove(rng, tr)
			}
			if serial.Stats.StagesSim == 0 || serial.Stats.StagesHit == 0 || serial.Stats.FullStages < 12 {
				t.Errorf("%s seed %d: coverage %+v", spec, seed, serial.Stats)
			}
		}
	}
}

// TestStageOrderAsserted: extraction numbers every stage after its parent,
// which the serial walk, the chain keys and the output directions rely
// on, and simulateCorners refuses a netlist that breaks the order.
func TestStageOrderAsserted(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(3))
	net := new(analysis.Net)
	for trial := 0; trial < 4; trial++ {
		if err := net.Extract(deepWideTree(rng, tk).Arena(), 0); err != nil {
			t.Fatal(err)
		}
		for i, s := range net.Stages {
			if s.Parent >= i {
				t.Fatalf("trial %d: stage %d has parent %d", trial, i, s.Parent)
			}
			for _, c := range s.Children {
				if net.Stages[c].Parent != i {
					t.Fatalf("trial %d: stage %d lists child %d, whose parent is %d", trial, i, c, net.Stages[c].Parent)
				}
			}
		}
	}
	bad := &analysis.Net{Tech: tk, Stages: []*analysis.Stage{{Parent: 1}, {Parent: -1, Children: []int{0}}}}
	defer func() {
		if recover() == nil {
			t.Fatal("a stage numbered before its parent was accepted")
		}
	}()
	New().simulateCorners(bad, tk.Corners, nil, nil, make([]cornerOutcome, len(tk.Corners)))
}
