package spice

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/tech"
)

// randomInput returns a seeded random input waveform for one kernel
// column. Most are ramps of random direction, start and transition time,
// so paired columns stop on different steps. Some stall at mid-rail: an
// inverter driven that way never settles, so its column runs to tMax.
func randomInput(rng *rand.Rand, vdd, dt float64) (vin *Waveform, stalled bool) {
	v0, v1 := 0.0, vdd
	if rng.Intn(2) == 0 {
		v0, v1 = vdd, 0
	}
	stalled = rng.Intn(4) == 0
	if stalled {
		v1 = vdd / 2
	}
	vin = Ramp(v0, v1, 5+rng.Float64()*300, dt)
	vin.T0 = math.Floor(rng.Float64() * 400)
	return vin, stalled
}

// samples returns w's samples materialized: the stored ones followed by
// the implicit tail, pulling an unfinished waveform to its end.
func samples(w *Waveform) []float64 {
	c := w.complete()
	v := slices.Clone(c.V)
	for i := 0; i < c.Tail; i++ {
		v = append(v, c.Last())
	}
	return v
}

// sameStageResult fails unless a and b agree bit for bit: every t50, every
// slew and every sample of every load waveform.
func sameStageResult(t *testing.T, what string, a, b *stageResult) {
	t.Helper()
	if len(a.t50) != len(b.t50) || len(a.slew) != len(b.slew) {
		t.Fatalf("%s: node counts differ", what)
	}
	for i := range a.t50 {
		if math.Float64bits(a.t50[i]) != math.Float64bits(b.t50[i]) {
			t.Fatalf("%s: t50[%d] %v != %v", what, i, a.t50[i], b.t50[i])
		}
		if math.Float64bits(a.slew[i]) != math.Float64bits(b.slew[i]) {
			t.Fatalf("%s: slew[%d] %v != %v", what, i, a.slew[i], b.slew[i])
		}
	}
	if len(a.loadWaves) != len(b.loadWaves) {
		t.Fatalf("%s: %d load waveforms != %d", what, len(a.loadWaves), len(b.loadWaves))
	}
	for node, wa := range a.loadWaves {
		wb, ok := b.loadWaves[node]
		if !ok {
			t.Fatalf("%s: load node %d missing", what, node)
		}
		if math.Float64bits(wa.T0) != math.Float64bits(wb.T0) || wa.Dt != wb.Dt ||
			math.Float64bits(wa.V0) != math.Float64bits(wb.V0) || wa.Len() != wb.Len() {
			t.Fatalf("%s: load node %d header or length differs (%d vs %d samples)", what, node, wa.Len(), wb.Len())
		}
		va, vb := samples(wa), samples(wb)
		for k := range va {
			if math.Float64bits(va[k]) != math.Float64bits(vb[k]) {
				t.Fatalf("%s: load node %d sample %d %v != %v", what, node, k, va[k], vb[k])
			}
		}
	}
}

// TestPairedKernelMatchesOneColumn: integrating two edges in one paired
// simStage call must give, for each column, exactly what a one-column call
// gives — across source and inverter stages, derated pvt5 corners, random
// inputs whose columns stop on different steps, and stalled inputs that
// run one column to tMax. Four columns from two equal-derate corners at
// different supplies must match too, in every phase of the kernel (the
// four-column sweep, the paired sweep of the first two survivors and the
// one-column tail) and in several column orders, as must three columns.
func TestPairedKernelMatchesOneColumn(t *testing.T) {
	base := tech.Default45()
	set, err := corners.Build("pvt5", base)
	if err != nil {
		t.Fatal(err)
	}
	tk := set.Apply(base)
	e := New()
	var pairs, uneven, tmax, sources, inverters int
	var quads, quadUneven, quadTmax int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomStagedTree(rng, tk)
		net := new(analysis.Net)
		if err := net.Extract(tr.Arena(), e.MaxSeg); err != nil {
			t.Fatal(err)
		}
		for ca, corner := range tk.Corners {
			for _, s := range net.Stages {
				drv, rd := stageDriver(net, s, corner)
				if s.Driver >= 0 {
					inverters++
				} else {
					sources++
				}
				var in [2]stageIn
				var stalled [2]bool
				for c := range in {
					in[c].vin, stalled[c] = randomInput(rng, corner.Vdd, e.Dt)
					in[c].outRising = rng.Intn(2) == 0
					in[c].corner, in[c].drv, in[c].rd = corner, drv, rd
				}
				paired := e.simStage(s, in[:])
				swapped := e.simStage(s, []stageIn{in[1], in[0]})
				var lens [2]int
				for c := range in {
					alone := e.simStage(s, in[c:c+1])
					sameStageResult(t, "paired vs one column", &paired[c], &alone[0])
					sameStageResult(t, "swapped vs one column", &swapped[1-c], &alone[0])
					for _, w := range alone[0].loadWaves {
						lens[c] = w.Len()
						// A stalled inverter never settles at its rail, so
						// its column can only have stopped at tMax.
						rail := 0.0
						if in[c].outRising {
							rail = corner.Vdd
						}
						if stalled[c] && s.Driver >= 0 && abs(w.Last()-rail) > e.SettleTol*corner.Vdd {
							tmax++
						}
						break
					}
				}
				pairs++
				if lens[0] != lens[1] {
					uneven++
				}

				// Four columns: this corner's pair plus a later corner's
				// pair, when the two corners share their derates.
				for _, other := range tk.Corners[ca+1:] {
					if other.RScale() != corner.RScale() || other.CScale() != corner.CScale() {
						continue
					}
					odrv, ord := stageDriver(net, s, other)
					quad := []stageIn{in[0], in[1], {}, {}}
					qstalled := [4]bool{stalled[0], stalled[1]}
					for c := 2; c < 4; c++ {
						quad[c].vin, qstalled[c] = randomInput(rng, other.Vdd, e.Dt)
						quad[c].outRising = rng.Intn(2) == 0
						quad[c].corner, quad[c].drv, quad[c].rd = other, odrv, ord
					}
					var alone [4]stageResult
					steps := map[int]bool{}
					for c := range quad {
						alone[c] = e.simStage(s, quad[c:c+1])[0]
						for _, w := range alone[c].loadWaves {
							steps[w.Len()] = true
							rail := 0.0
							if quad[c].outRising {
								rail = quad[c].corner.Vdd
							}
							if qstalled[c] && s.Driver >= 0 && abs(w.Last()-rail) > e.SettleTol*quad[c].corner.Vdd {
								quadTmax++
							}
							break
						}
					}
					for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {0, 2, 1, 3}, {2, 3, 0, 1}, {1, 3, 0, 2}, {0, 1, 2}, {3, 0, 2}} {
						cols := make([]stageIn, len(order))
						for k, c := range order {
							cols[k] = quad[c]
						}
						got := e.simStage(s, cols)
						for k, c := range order {
							sameStageResult(t, fmt.Sprintf("columns %v, column %d vs one column", order, k), &got[k], &alone[c])
						}
					}
					quads++
					if len(steps) >= 3 {
						quadUneven++
					}
				}
			}
		}
	}
	if quads == 0 || quadUneven < quads/2 || quadTmax == 0 {
		t.Errorf("four-column coverage: %d quads, %d with three or more distinct stop steps, %d columns at tMax",
			quads, quadUneven, quadTmax)
	}
	if sources == 0 || inverters == 0 {
		t.Fatalf("coverage: %d source and %d inverter stage pairs", sources, inverters)
	}
	if uneven < pairs/2 {
		t.Errorf("only %d of %d pairs stopped on different steps", uneven, pairs)
	}
	if tmax == 0 {
		t.Error("no column ran to tMax")
	}
	t.Logf("%d pairs: %d source, %d inverter, %d uneven, %d columns at tMax; %d quads, %d staggered, %d columns at tMax",
		pairs, sources, inverters, uneven, tmax, quads, quadUneven, quadTmax)
}

// refCrossing is the reference the sequential tracker replaced: one
// independent first-crossing tracker per threshold and direction.
type refCrossing struct {
	th     float64
	rising bool
	t      float64
	done   bool
}

func (c *refCrossing) observe(t, dt, vPrev, v float64) {
	if c.done {
		return
	}
	if c.rising {
		if vPrev < c.th && v >= c.th {
			c.t = t - dt + dt*(c.th-vPrev)/(v-vPrev)
			c.done = true
		}
	} else if vPrev > c.th && v <= c.th {
		c.t = t - dt + dt*(vPrev-c.th)/(vPrev-v)
		c.done = true
	}
}

// TestSequentialTrackerMatchesIndependentKernel: on random non-monotone
// waveforms that start at the pre-transition rail, one sign-folded
// sequential tracker must report exactly the crossings of three
// independent first-crossing trackers, bit for bit, in both directions,
// including steps that cross several thresholds at once.
func TestSequentialTrackerMatchesIndependentKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dt = 0.5
	var multi, partial int
	for trial := 0; trial < 4000; trial++ {
		vdd := 0.6 + rng.Float64()
		rising := rng.Intn(2) == 0
		v, sign := vdd, -1.0
		th := [3]float64{-(0.9 * vdd), -(0.5 * vdd), -(0.1 * vdd)}
		if rising {
			v, sign = 0, 1
			th = [3]float64{0.1 * vdd, 0.5 * vdd, 0.9 * vdd}
		}
		// ref[k] is the independent tracker of the level seq's t[k] holds:
		// falling outputs cross 90% first.
		levels := [3]float64{0.1, 0.5, 0.9}
		if !rising {
			levels = [3]float64{0.9, 0.5, 0.1}
		}
		var ref [3]refCrossing
		for k := range ref {
			ref[k] = refCrossing{th: levels[k] * vdd, rising: rising}
		}
		var seq tracker
		drift := sign * vdd * (rng.Float64()*0.05 - 0.01)
		tm := 0.0
		for step := 0; step < 300; step++ {
			tm += dt
			nv := v + drift + vdd*0.1*rng.NormFloat64()
			if rng.Intn(40) == 0 {
				nv = v + sign*vdd*(rng.Float64()*1.6-0.3) // a jump, often across several levels
			}
			before := seq.next
			for k := range ref {
				ref[k].observe(tm, dt, v, nv)
			}
			seq.observe(tm, dt, sign*v, sign*nv, &th)
			if seq.next-before > 1 {
				multi++
			}
			v = nv
		}
		for k := range ref {
			if ref[k].done != (int(seq.next) > k) {
				t.Fatalf("trial %d: threshold %d crossed=%v, sequential next=%d", trial, k, ref[k].done, seq.next)
			}
			if ref[k].done && math.Float64bits(ref[k].t) != math.Float64bits(seq.t[k]) {
				t.Fatalf("trial %d: threshold %d at %v, sequential %v", trial, k, ref[k].t, seq.t[k])
			}
		}
		if seq.next < 3 {
			partial++
		}
	}
	if multi == 0 || partial == 0 {
		t.Errorf("coverage: %d multi-threshold steps, %d partial waveforms", multi, partial)
	}
}
