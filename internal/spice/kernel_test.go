package spice

import (
	"math"
	"math/rand"
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
			math.Float64bits(wa.V0) != math.Float64bits(wb.V0) || len(wa.V) != len(wb.V) {
			t.Fatalf("%s: load node %d header or length differs (%d vs %d samples)", what, node, len(wa.V), len(wb.V))
		}
		for k := range wa.V {
			if math.Float64bits(wa.V[k]) != math.Float64bits(wb.V[k]) {
				t.Fatalf("%s: load node %d sample %d %v != %v", what, node, k, wa.V[k], wb.V[k])
			}
		}
	}
}

// TestPairedKernelMatchesOneColumn: integrating two edges in one paired
// simStage call must give, for each column, exactly what a one-column call
// gives — across source and inverter stages, derated pvt5 corners, random
// inputs whose columns stop on different steps, and stalled inputs that
// run one column to tMax.
func TestPairedKernelMatchesOneColumn(t *testing.T) {
	base := tech.Default45()
	set, err := corners.Build("pvt5", base)
	if err != nil {
		t.Fatal(err)
	}
	tk := set.Apply(base)
	e := New()
	var pairs, uneven, tmax, sources, inverters int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomStagedTree(rng, tk)
		net := analysis.Extract(tr, e.MaxSeg)
		for _, corner := range tk.Corners {
			for _, s := range net.Stages {
				rd := net.DriverR(s, corner)
				drv := driver{r: rd}
				if s.Driver != nil {
					drv = driver{inverter: true, k: tk.KDrive(*s.Driver.Buf), vdd: corner.Vdd, vt: tk.Vt}
					inverters++
				} else {
					sources++
				}
				var in [2]stageIn
				var stalled [2]bool
				for c := range in {
					in[c].vin, stalled[c] = randomInput(rng, corner.Vdd, e.Dt)
					in[c].outRising = rng.Intn(2) == 0
				}
				paired := e.simStage(s, &drv, rd, corner, in[:])
				swapped := e.simStage(s, &drv, rd, corner, []stageIn{in[1], in[0]})
				var lens [2]int
				for c := range in {
					alone := e.simStage(s, &drv, rd, corner, in[c:c+1])
					sameStageResult(t, "paired vs one column", &paired[c], &alone[0])
					sameStageResult(t, "swapped vs one column", &swapped[1-c], &alone[0])
					for _, w := range alone[0].loadWaves {
						lens[c] = len(w.V)
						// A stalled inverter never settles at its rail, so
						// its column can only have stopped at tMax.
						rail := 0.0
						if in[c].outRising {
							rail = corner.Vdd
						}
						if stalled[c] && s.Driver != nil && abs(w.Last()-rail) > e.SettleTol*corner.Vdd {
							tmax++
						}
						break
					}
				}
				pairs++
				if lens[0] != lens[1] {
					uneven++
				}
			}
		}
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
	t.Logf("%d pairs: %d source, %d inverter, %d uneven, %d columns at tMax", pairs, sources, inverters, uneven, tmax)
}
