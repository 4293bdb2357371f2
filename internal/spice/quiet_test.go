package spice

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/tech"
)

// refStage integrates one column the plain way: every step in full, every
// sample stored, on a materialized copy of the input. simStage, which
// skips quiet steps and stores settled tails implicitly, must match it bit
// for bit.
func refStage(e *Engine, s *analysis.Stage, ci stageIn) stageResult {
	n := len(s.R)
	dt := e.Dt
	rScale, cScale := ci.corner.RScale(), ci.corner.CScale()
	g, gC, d, elim := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		gC[i] = s.C[i] * cScale / dt
		if i > 0 {
			g[i] = 1 / (s.R[i] * rScale)
		}
	}
	for i := n - 1; i >= 1; i-- {
		d[i] = gC[i] + g[i] + elim[i]
		elim[s.Par[i]] += g[i] - g[i]*g[i]/d[i]
	}
	d[0] = gC[0] + elim[0]
	if d[0] <= 0 {
		d[0] = 1e-12
	}
	tau := 1.0
	if m := analysis.StageElmoreMaxAt(s, ci.rd, ci.corner); m > tau {
		tau = m
	}
	vdd := ci.corner.Vdd
	rail0, railF, sign := vdd, 0.0, -1.0
	th := [3]float64{-(0.9 * vdd), -(0.5 * vdd), -(0.1 * vdd)}
	if ci.outRising {
		rail0, railF, sign = 0, vdd, 1
		th = [3]float64{0.1 * vdd, 0.5 * vdd, 0.9 * vdd}
	}
	vin := &Waveform{T0: ci.vin.T0, Dt: ci.vin.Dt, V: samples(ci.vin), V0: ci.vin.V0}
	V, b, acc := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range V {
		V[i] = rail0
	}
	tr := make([]tracker, n)
	waves := map[int]*Waveform{}
	for _, ld := range s.Loads {
		if waves[ld.Node] == nil {
			waves[ld.Node] = &Waveform{T0: vin.T0, Dt: dt, V: []float64{rail0}, V0: rail0}
		}
	}
	tEndMin := vin.End() + 5*tau + 50
	tMax := tEndMin + 30*tau + 2000
	tol := e.SettleTol * vdd
	for t, stop := vin.T0, false; !stop; {
		t += dt
		for i := n - 1; i >= 1; i-- {
			b[i] = gC[i]*V[i] + acc[i]
			acc[i] = 0
			acc[s.Par[i]] += g[i] * b[i] / d[i]
		}
		b0 := gC[0]*V[0] + acc[0]
		acc[0] = 0
		v0 := solveRoot(&ci.drv, vin.At(t), d[0], b0, V[0], vdd)
		tr[0].observe(t, dt, sign*V[0], sign*v0, &th)
		V[0] = v0
		settled := abs(v0-railF) <= tol
		for i := 1; i < n; i++ {
			v := (b[i] + g[i]*V[s.Par[i]]) / d[i]
			tr[i].observe(t, dt, sign*V[i], sign*v, &th)
			V[i] = v
			if abs(v-railF) > tol {
				settled = false
			}
		}
		for node, w := range waves {
			w.V = append(w.V, V[node])
		}
		stop = (t >= tEndMin && settled) || t >= tMax
	}
	res := stageResult{t50: make([]float64, n), slew: make([]float64, n), loadWaves: waves}
	for i, k := range tr {
		res.t50[i], res.slew[i] = math.Inf(1), math.Inf(1)
		if k.next > 1 {
			res.t50[i] = k.t[1]
		}
		if k.next == 3 {
			res.slew[i] = abs(k.t[2] - k.t[0])
		}
	}
	return res
}

// kernelCoverage counts what a kernel comparison exercised.
type kernelCoverage struct {
	widths     [5]int // simStage calls by column count
	tailInputs int    // columns whose input ended in an implicit tail
	tailOuts   int    // load waveforms with an implicit tail
	tmax       int    // stalled inverter columns, which can only stop at tMax
}

// checkAgainstReference runs the columns together in one simStage call and
// each through refStage, failing unless every column agrees bit for bit.
func checkAgainstReference(t *testing.T, what string, e *Engine, s *analysis.Stage, in []stageIn, stalled []bool, cov *kernelCoverage) [4]stageResult {
	t.Helper()
	got := e.simStage(s, in)
	cov.widths[len(in)]++
	for c := range in {
		want := refStage(e, s, in[c])
		sameStageResult(t, fmt.Sprintf("%s, column %d of %d", what, c, len(in)), &got[c], &want)
		if in[c].vin.Tail > 0 {
			cov.tailInputs++
		}
		for _, w := range got[c].loadWaves {
			if w.Tail > 0 {
				cov.tailOuts++
			}
		}
		rail := 0.0
		if in[c].outRising {
			rail = in[c].corner.Vdd
		}
		if stalled[c] && in[c].drv.inverter {
			for _, w := range want.loadWaves {
				if abs(w.Last()-rail) > e.SettleTol*in[c].corner.Vdd {
					cov.tmax++
				}
				break
			}
		}
	}
	return got
}

// TestQuiescentSkipMatchesReferenceKernel: skipping quiet steps and
// storing settled tails implicitly must not change a bit of any result.
// Every stage of seeded random trees runs at every pvt5 corner, paired
// with the next corner of equal derates, as one to four columns in random
// order. A column's input is its parent's load waveform, trimmed as the
// engine trims it, so it ends in an implicit tail; or a random ramp,
// sometimes given a tail, sometimes stalled at mid-rail so its column runs
// to tMax. Each column must equal refStage's plain integration in t50,
// slew and every load sample. The time step runs at 1 ps, where step
// times fall on the input's sample grid, and at 0.7 ps, where they do not
// and interpolation inside a constant tail need not return the constant.
func TestQuiescentSkipMatchesReferenceKernel(t *testing.T) {
	base := tech.Default45()
	set, err := corners.Build("pvt5", base)
	if err != nil {
		t.Fatal(err)
	}
	tk := set.Apply(base)
	var cov kernelCoverage
	for _, dt := range []float64{1, 0.7} {
		e := New()
		e.Dt = dt
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := randomStagedTree(rng, tk)
			net := new(analysis.Net)
			if err := net.Extract(tr.Arena(), e.MaxSeg); err != nil {
				t.Fatal(err)
			}
			// Output direction of each stage under a rising launch.
			dirs := make([]bool, len(net.Stages))
			for i, s := range net.Stages {
				dirs[i] = s.Parent < 0 || !dirs[s.Parent]
			}
			for ca, corner := range tk.Corners {
				group := []tech.Corner{corner}
				for _, o := range tk.Corners[ca+1:] {
					if o.RScale() == corner.RScale() && o.CScale() == corner.CScale() {
						group = append(group, o)
						break
					}
				}
				// Lane 2k+c is corner k's launch edge c, as in the engine.
				nl := 2 * len(group)
				results := make([][4]*stageResult, len(net.Stages))
				for i, s := range net.Stages {
					lanes := rng.Perm(nl)[:1+rng.Intn(nl)]
					in := make([]stageIn, len(lanes))
					stalled := make([]bool, len(lanes))
					for k, l := range lanes {
						cn, rising := group[l/2], launchEdges[l%2]
						drv, rd := stageDriver(net, s, cn)
						var vin *Waveform
						switch {
						case s.Parent < 0 && rng.Intn(3) > 0:
							vin = Ramp(cn.Vdd, 0, e.SourceSlew, dt)
							if rising {
								vin = Ramp(0, cn.Vdd, e.SourceSlew, dt)
							}
						case s.Parent >= 0 && results[s.Parent][l] != nil && rng.Intn(3) > 0:
							vin = results[s.Parent][l].loadWaves[s.InputNode].TrimInto(0.002*cn.Vdd, new(Waveform))
						default:
							vin, stalled[k] = randomInput(rng, cn.Vdd, dt)
							if rng.Intn(2) == 0 {
								vin.Tail = rng.Intn(400)
							}
						}
						in[k] = stageIn{vin: vin, outRising: dirs[i] == rising, corner: cn, drv: drv, rd: rd}
					}
					got := checkAgainstReference(t, fmt.Sprintf("dt %v seed %d corner %d stage %d", dt, seed, ca, i), e, s, in, stalled, &cov)
					for k, l := range lanes {
						results[i][l] = &got[k]
					}
				}
			}
		}
	}
	for w := 1; w <= 4; w++ {
		if cov.widths[w] == 0 {
			t.Errorf("no %d-column call", w)
		}
	}
	if cov.tailInputs == 0 || cov.tailOuts == 0 || cov.tmax == 0 {
		t.Errorf("coverage: %d inputs and %d outputs with implicit tails, %d columns at tMax", cov.tailInputs, cov.tailOuts, cov.tmax)
	}
	t.Logf("calls by width %v; %d tail inputs, %d tail outputs, %d columns at tMax", cov.widths[1:], cov.tailInputs, cov.tailOuts, cov.tmax)
}

// randomRCStage builds a random RC tree of 1 to 12 nodes with a few load
// nodes, each node hanging from an earlier one.
func randomRCStage(rng *rand.Rand) *analysis.Stage {
	n := 1 + rng.Intn(12)
	s := &analysis.Stage{R: make([]float64, n), C: make([]float64, n), Par: make([]int, n)}
	s.Par[0] = -1
	for i := 0; i < n; i++ {
		s.C[i] = 0.5 + rng.Float64()*60
		if i > 0 {
			s.Par[i] = rng.Intn(i)
			s.R[i] = 0.001 + rng.Float64()*0.2
		}
	}
	for k := rng.Intn(4); k >= 0; k-- {
		s.Loads = append(s.Loads, analysis.Load{Node: rng.Intn(n)})
	}
	return s
}

// FuzzStageKernel: on a random RC stage, driver, input waveform and time
// step, simStage with one to four columns must match refStage bit for bit.
func FuzzStageKernel(f *testing.F) {
	f.Add(int64(1), 1.0, uint16(0), uint8(0))
	f.Add(int64(2), 0.7, uint16(300), uint8(3))
	f.Add(int64(3), 2.0, uint16(40), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, dt float64, tail uint16, cols uint8) {
		if math.IsNaN(dt) || math.IsInf(dt, 0) {
			dt = 1
		}
		dt = 0.1 + math.Mod(math.Abs(dt), 3) // keep windows short enough to fuzz
		rng := rand.New(rand.NewSource(seed))
		s := randomRCStage(rng)
		e := New()
		e.Dt = dt
		corner := tech.Corner{Vdd: 0.8 + rng.Float64()*0.5, RDerate: 0.8 + rng.Float64()*0.4, CDerate: 0.8 + rng.Float64()*0.4}
		in := make([]stageIn, 1+int(cols%4))
		stalled := make([]bool, len(in))
		for c := range in {
			// A source resistor or an inverter, each column its own.
			drv, rd := driver{r: 0.05 + rng.Float64()}, 0.0
			if rng.Intn(3) > 0 {
				drv = driver{inverter: true, k: 0.2 + rng.Float64()*4, vdd: corner.Vdd, vt: 0.2 + rng.Float64()*0.2}
				rd = 1 / drv.k
			}
			rd = max(rd, drv.r)
			in[c].vin, stalled[c] = randomInput(rng, corner.Vdd, dt)
			if rng.Intn(2) == 0 {
				// Off the step grid: interpolation never lands on a sample.
				in[c].vin.T0 += rng.Float64()
			}
			in[c].vin.Tail = int(tail) % 512
			in[c].outRising = rng.Intn(2) == 0
			in[c].corner, in[c].drv, in[c].rd = corner, drv, rd
		}
		var cov kernelCoverage
		checkAgainstReference(t, "fuzz", e, s, in, stalled, &cov)
	})
}
