package spice

import (
	"math"
	"math/rand"
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/slack"
	"contango/internal/tech"
)

// mapResult is a corner's evaluation in the per-slot map form results had
// before they became slot-indexed: an entry for every measured arrival and
// sink slew, and for every stage with a measured transition, keyed by
// slot; a missing entry reads 0.
type mapResult struct {
	rise, fall, sinkSlew, stageSlew map[int]float64
}

// mapsOfFlat expands a flat result the way the map form was built from
// it: a sink enters rise or fall for each edge that reached it and
// sinkSlew for either, a stage enters stageSlew when its slew is positive.
func mapsOfFlat(f *flatResult, keys resultKeys) mapResult {
	m := mapResult{map[int]float64{}, map[int]float64{}, map[int]float64{}, map[int]float64{}}
	for j, slot := range keys.sinks {
		h := f.has[j]
		if h&analysis.HasRise != 0 {
			m.rise[int(slot)] = f.rise[j]
		}
		if h&analysis.HasFall != 0 {
			m.fall[int(slot)] = f.fall[j]
		}
		if h != 0 {
			m.sinkSlew[int(slot)] = f.slew[j]
		}
	}
	for i, slot := range keys.stages {
		if f.stageSlew[i] > 0 {
			m.stageSlew[int(slot)] = f.stageSlew[i]
		}
	}
	return m
}

// mapsOfSlots expands a slot-indexed result by its presence bits.
func mapsOfSlots(r *analysis.Result) mapResult {
	m := mapResult{map[int]float64{}, map[int]float64{}, map[int]float64{}, map[int]float64{}}
	for id, h := range r.Has {
		if h&analysis.HasRise != 0 {
			m.rise[id] = r.Rise[id]
		}
		if h&analysis.HasFall != 0 {
			m.fall[id] = r.Fall[id]
		}
		if h != 0 {
			m.sinkSlew[id] = r.SinkSlew[id]
		}
	}
	for id, v := range r.StageSlew {
		if v > 0 {
			m.stageSlew[id] = v
		}
	}
	return m
}

// mapMinMax is one edge of Result.Extremes over a map.
func mapMinMax(v map[int]float64) (min, max float64) {
	first := true
	for _, x := range v {
		if first {
			min, max, first = x, x, false
			continue
		}
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return
}

// mapSlacks is slack.Compute over the map form.
func mapSlacks(a *ctree.Arena, results []mapResult) map[int]float64 {
	slow := map[int]float64{}
	var views []map[int]float64
	for _, r := range results {
		if len(r.rise) > 0 {
			views = append(views, r.rise)
		}
		if len(r.fall) > 0 {
			views = append(views, r.fall)
		}
	}
	sinks := a.Sinks()
	for _, sk := range sinks {
		slow[int(sk)] = math.Inf(1)
	}
	for _, lat := range views {
		tmax := math.Inf(-1)
		for _, sk := range sinks {
			tmax = math.Max(tmax, lat[int(sk)])
		}
		for _, sk := range sinks {
			slow[int(sk)] = math.Min(slow[int(sk)], tmax-lat[int(sk)])
		}
	}
	a.PostOrder(func(n int32) {
		if a.Kind[n] == ctree.Sink {
			return
		}
		s := math.Inf(1)
		for _, c := range a.Children(n) {
			s = math.Min(s, slow[int(c)])
		}
		slow[int(n)] = s
	})
	return slow
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameMaps fails unless the two map forms hold the same entries,
// bit for bit.
func requireSameMaps(t *testing.T, label string, got, want mapResult) {
	t.Helper()
	for _, p := range []struct {
		what      string
		got, want map[int]float64
	}{{"rise", got.rise, want.rise}, {"fall", got.fall, want.fall},
		{"sinkSlew", got.sinkSlew, want.sinkSlew}, {"stageSlew", got.stageSlew, want.stageSlew}} {
		if len(p.got) != len(p.want) {
			t.Fatalf("%s: %s has %d entries, want %d", label, p.what, len(p.got), len(p.want))
		}
		for id, w := range p.want {
			if g, ok := p.got[id]; !ok || !sameBits(g, w) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, p.what, id, g, w)
			}
		}
	}
}

// requireSlotParity checks a slot-indexed result against its own map
// expansion: every slot the map form lacks reads 0, Extremes and Skew
// equal the map computations, and the source stage's slew sits on the
// root slot.
func requireSlotParity(t *testing.T, label string, a *ctree.Arena, r *analysis.Result) mapResult {
	t.Helper()
	n := a.Len()
	if len(r.Rise) != n || len(r.Fall) != n || len(r.SinkSlew) != n || len(r.StageSlew) != n || len(r.Has) != n {
		t.Fatalf("%s: result slices do not cover the arena's %d slots", label, n)
	}
	m := mapsOfSlots(r)
	for id := 0; id < n; id++ {
		for _, p := range []struct {
			v []float64
			m map[int]float64
		}{{r.Rise, m.rise}, {r.Fall, m.fall}, {r.SinkSlew, m.sinkSlew}, {r.StageSlew, m.stageSlew}} {
			if _, ok := p.m[id]; !ok && p.v[id] != 0 {
				t.Fatalf("%s: slot %d holds %v without a map entry", label, id, p.v[id])
			}
		}
	}
	for _, sk := range a.Sinks() {
		if r.Has[sk] == 0 {
			t.Fatalf("%s: sink %d unmeasured", label, sk)
		}
	}
	if _, ok := m.stageSlew[int(a.Root())]; !ok {
		t.Fatalf("%s: no source-stage slew on the root slot", label)
	}
	rlo, rhi := mapMinMax(m.rise)
	flo, fhi := mapMinMax(m.fall)
	if a, b, c, d := r.Extremes(); !sameBits(a, rlo) || !sameBits(b, rhi) || !sameBits(c, flo) || !sameBits(d, fhi) {
		t.Fatalf("%s: Extremes %v %v %v %v, map form %v %v %v %v", label, a, b, c, d, rlo, rhi, flo, fhi)
	}
	skew := rhi - rlo
	if fs := fhi - flo; fs > skew {
		skew = fs
	}
	if !sameBits(r.Skew(), skew) {
		t.Fatalf("%s: Skew %v, map form %v", label, r.Skew(), skew)
	}
	return m
}

// requireSlackParity checks slack.Compute over slot-indexed results
// against the map form's computation.
func requireSlackParity(t *testing.T, label string, a *ctree.Arena, rs []*analysis.Result, ms []mapResult) {
	t.Helper()
	got := slack.Compute(a, rs).EdgeSlow
	want := mapSlacks(a, ms)
	for id, v := range got {
		if w, ok := want[id]; ok && !sameBits(v, w) || !ok && v != 0 {
			t.Fatalf("%s: EdgeSlow[%d] = %v, map form %v (present %v)", label, id, v, w, ok)
		}
	}
}

// TestSlotResultParity: on random buffered trees through six mutation
// rounds, every evaluator's slot-indexed results hold exactly what the map
// form held. The transient evaluators (Incremental, through its memo's
// flat results, and Engine, through its own corner simulation) are
// checked against the map expansion of their flat form; Elmore and
// TwoPole against the worst arrival ElmoreWorst computes without any
// result. Extremes, Skew and slack.Compute must agree with
// the map computations bit for bit.
func TestSlotResultParity(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 2; iter++ {
		tr := randomStagedTree(rng, tk)
		ie := NewIncremental(tr, New(), 2)
		for round := 0; round < 6; round++ {
			a := tr.Arena()
			rs, err := ie.EvaluateCorners(tr, tk.Corners)
			if err != nil {
				t.Fatal(err)
			}
			ent := ie.memo.lru.Front().Value.(*netEntry)
			var ms []mapResult
			for ci, r := range rs {
				m := requireSlotParity(t, "incremental", a, r)
				requireSameMaps(t, "incremental", m, mapsOfFlat(&ent.flats[ci], ent.keys))
				ms = append(ms, m)
			}
			requireSlackParity(t, "incremental", a, rs, ms)

			eng := New()
			var net analysis.Net
			if err := net.Extract(a, eng.MaxSeg); err != nil {
				t.Fatal(err)
			}
			outs := make([]cornerOutcome, len(tk.Corners))
			eng.simulateCorners(&net, tk.Corners, nil, nil, outs)
			full, err := New().EvaluateCorners(tr, tk.Corners)
			if err != nil {
				t.Fatal(err)
			}
			ms = ms[:0]
			for ci, r := range full {
				m := requireSlotParity(t, "engine", a, r)
				requireSameMaps(t, "engine", m, mapsOfFlat(&outs[ci].flat, resultKeysOf(&net)))
				ms = append(ms, m)
			}
			requireSlackParity(t, "engine", a, full, ms)

			for _, ev := range []analysis.Evaluator{&analysis.Elmore{}, &analysis.TwoPole{}} {
				rs, err := ev.EvaluateCorners(tr, tk.Corners)
				if err != nil {
					t.Fatal(err)
				}
				ms = ms[:0]
				for ci, r := range rs {
					m := requireSlotParity(t, ev.Name(), a, r)
					if len(m.rise) != len(a.Sinks()) || len(m.fall) != len(m.rise) {
						t.Fatalf("%s: %d/%d arrivals for %d sinks", ev.Name(), len(m.rise), len(m.fall), len(a.Sinks()))
					}
					if ev.Name() == "elmore" {
						worst, viol := analysis.ElmoreWorst(&net, tk.Corners[ci])
						if _, hi, _, _ := r.Extremes(); !sameBits(hi, worst) || viol != r.SlewViol {
							t.Fatalf("elmore: worst %v/%d, ElmoreWorst %v/%d", hi, r.SlewViol, worst, viol)
						}
					}
					ms = append(ms, m)
				}
				requireSlackParity(t, ev.Name(), a, rs, ms)
			}
			randomMove(rng, tr)
		}
	}
}
