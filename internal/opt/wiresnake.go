package opt

import (
	"math"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/slack"
)

// DefaultLwn is the wiresnaking quantum (µm): snake lengths are multiples of
// it. Smaller values give finer control at the cost of more accurate-
// evaluation rounds (Section IV-F); the default follows the paper's
// empirically-set mid-range.
const DefaultLwn = 25.0

// EstimateTwn measures the worst-case effects of one snaking quantum: probe
// edges receive lwn µm of snake, one accurate evaluation measures the
// latency increase of their downstream sinks (Twn, ps/µm) and the slew
// degradation (TwnSlew, ps/µm), both conservative over probes. Probes are
// reverted. When sinkEdges is true the probes are sink wires, matching the
// bottom-level pass's operating region.
func EstimateTwn(cx *Context, lwn float64, sinkEdges bool) (twn, twnSlew float64, err error) {
	base, _, err := cx.Baseline()
	if err != nil {
		return 0, 0, err
	}
	a := cx.arena()
	var probes []int32
	if sinkEdges {
		for _, s := range a.Sinks() {
			if a.EdgeLen(s) > 50 {
				probes = append(probes, s)
			}
			if len(probes) == 4 {
				break
			}
		}
	} else {
		probes = pickProbes(a, cx.wideIdx(), 3)
	}
	if len(probes) == 0 {
		// Degenerate trees: fall back to the wire model (r·c per µm against
		// a typical downstream cap is unknowable without probes; use a tiny
		// positive stand-in so callers can still budget).
		w := a.Tech.Wires[cx.wideIdx()]
		return w.RPerUm * w.CPerUm * 100, 0.01, nil
	}
	for _, p := range probes {
		a.Snake[p] += lwn
	}
	cx.invalidate()
	after, _, err := cx.CNE()
	if err != nil {
		return 0, 0, err
	}
	for _, p := range probes {
		worst, worstSlew := probeDelta(a, base, after, p)
		if u := worst / lwn; u > twn {
			twn = u
		}
		if u := worstSlew / lwn; u > twnSlew {
			twnSlew = u
		}
	}
	for vi := range base {
		if d := (after[vi].MaxSlew - base[vi].MaxSlew) / lwn; d > twnSlew {
			twnSlew = d
		}
	}
	if twnSlew <= 0 {
		twnSlew = 1e-4
	}
	for _, p := range probes {
		a.Snake[p] -= lwn
	}
	cx.invalidate()
	return twn, twnSlew, nil
}

// snakeBudgetPass walks the tree top-down assigning snake to edges with
// positive remaining slow-down slack. safety < 1 leaves margin for model
// error; onlySinkEdges restricts the pass to bottom-level wires; maxStep
// caps the snake added to one edge in one round — the linear Twn model only
// holds for small increments (the paper snakes "a small amount" per round).
func snakeBudgetPass(cx *Context, res []*analysis.Result, twn, lwn, safety float64, onlySinkEdges bool, maxStep, capShare float64) int {
	a := cx.arena()
	slk := slack.Compute(a, res)
	tk := a.Tech
	wireC := tk.Wires[cx.narrowIdx()].CPerUm
	headroom := cx.capHeadroom() * capShare
	limit := tk.SlewLimit
	// Per-stage measured slews (worst over corners): snake on an edge only
	// degrades the slews of its own stage, so each stage's remaining
	// headroom bounds how much snake its edges can absorb this round.
	stageSlew := worstStageSlew(res)
	// Analytic slew impact of snaking edge n by x µm, at the slow corner:
	//   Δslew ≈ 2.2·[Rd·c·x + r·x·(c·x/2 + Cdown)]
	// — the stage driver charging the extra capacitance plus the snake's
	// own series resistance feeding everything below the edge. Inverting
	// the quadratic gives the largest snake the remaining stage headroom
	// allows; headroom is consumed as edges of the same stage are snaked.
	slowV := tk.Worst().Vdd
	driverR := func(driverID int) float64 {
		if driverID < 0 {
			return a.SourceR * (tk.VddRef - tk.Vt) / (slowV - tk.Vt)
		}
		buf, ok := a.Buf(int32(driverID))
		if !ok {
			return 1
		}
		return tk.RoutAt(buf, slowV)
	}
	slewCost := func(n int32, driverID int, x float64) float64 {
		w := tk.Wires[a.WidthIdx[n]]
		rd := driverR(driverID)
		cdown := a.LoadCap(n)
		return 2.2 * (rd*w.CPerUm*x + w.RPerUm*x*(w.CPerUm*x/2+cdown))
	}
	slewRoomLen := func(n int32, driverID int, room float64) float64 {
		if room <= 0 {
			return 0
		}
		w := tk.Wires[a.WidthIdx[n]]
		rd := driverR(driverID)
		cdown := a.LoadCap(n)
		qa := w.RPerUm * w.CPerUm / 2
		bq := rd*w.CPerUm + w.RPerUm*cdown
		c0 := room / 2.2
		return (-bq + math.Sqrt(bq*bq+4*qa*c0)) / (2 * qa)
	}
	changed := 0
	// driverOf maps every slot to its stage driver (-1 = source).
	driverOf := make([]int, a.Len())
	var mark func(n int32, drv int)
	mark = func(n int32, drv int) {
		driverOf[n] = drv
		next := drv
		if a.Kind[n] == ctree.Buffer {
			next = int(n)
		}
		for _, c := range a.Children(n) {
			mark(c, next)
		}
	}
	mark(a.Root(), -1)
	topDown(a, func(n int32, used float64) float64 {
		if onlySinkEdges && a.Kind[n] != ctree.Sink {
			return used
		}
		budget := (slk.EdgeSlow[int(n)] - used) * safety
		if budget > twn*lwn {
			addLen := math.Floor(budget/(twn*lwn)) * lwn
			if addLen > maxStep {
				addLen = math.Floor(maxStep/lwn) * lwn
			}
			// Brake against the owning stage's slew headroom.
			drv := driverOf[n]
			room := 0.88*limit - stageSlew[drv]
			if lim := slewRoomLen(n, drv, room); addLen > lim {
				addLen = math.Floor(lim/lwn) * lwn
			}
			// Respect the capacitance limit.
			if addCap := addLen * wireC; addCap > headroom {
				addLen = math.Floor(headroom/wireC/lwn) * lwn
			}
			if addLen > 0 {
				a.Snake[n] += addLen
				stageSlew[drv] += slewCost(n, drv, addLen)
				headroom -= addLen * wireC
				used += addLen * twn
				changed++
			}
		}
		return used
	})
	return changed
}

// TopDownWiresnaking is the paper's Section IV-F pass: top-down snaking of
// high tree edges driven by slow-down slacks and the measured Twn linear
// model, with accurate-evaluation acceptance per round.
func TopDownWiresnaking(cx *Context) error {
	lwn := DefaultLwn
	twn, twnSlew, err := EstimateTwn(cx, lwn, false)
	if err != nil {
		return err
	}
	if twn <= 0 {
		cx.logf("twsn: degenerate Twn, skipping")
		return nil
	}
	cx.logf("twsn: Twn=%.5f ps/µm, TwnSlew=%.5f ps/µm (lwn=%.0f)", twn, twnSlew, lwn)
	// Re-run the improvement loop with progressively gentler steps: a round
	// that overshoots the accurate check at a coarse step often passes at a
	// finer one.
	for _, step := range []float64{400, 150, 50} {
		step := step
		if err := cx.improveLoop("twsn", MinSkew, func(res []*analysis.Result) bool {
			changed := snakeBudgetPass(cx, res, twn, lwn, 0.85, false, step, 1.0)
			cx.logf("twsn: snaked %d edges (step %.0f)", changed, step)
			return changed > 0
		}); err != nil {
			return err
		}
	}
	return nil
}

// BottomLevelTuning is the paper's Section IV-G fine-tuning: wiresizing and
// wiresnaking restricted to the wires directly connected to sinks, with a
// finer snaking quantum, run until the results stop improving. Gains are
// typically small (a couple of ps) but a large fraction of the remaining
// skew.
func BottomLevelTuning(cx *Context) error {
	lwn := DefaultLwn / 2.5 // finer quantum at the bottom level
	twn, _, err := EstimateTwn(cx, lwn, true)
	if err != nil {
		return err
	}
	if twn <= 0 {
		return nil
	}
	// Bottom-level wiresizing: downsize sink edges with slack to spare.
	twsUnit, err := EstimateTws(cx)
	if err != nil {
		return err
	}
	wide, narrow := cx.wideIdx(), cx.narrowIdx()
	if twsUnit > 0 {
		if err := cx.improveLoop("bwsz", MinBoth, func(res []*analysis.Result) bool {
			a := cx.arena()
			slk := slack.Compute(a, res)
			changed := 0
			for _, s := range a.Sinks() {
				if int(a.WidthIdx[s]) != wide {
					continue
				}
				if slk.EdgeSlow[int(s)] > twsUnit*a.EdgeLen(s)*1.2 {
					a.WidthIdx[s] = int32(narrow)
					changed++
				}
			}
			cx.logf("bwsz: downsized %d sink edges", changed)
			return changed > 0
		}); err != nil {
			return err
		}
	}
	// Bottom-level wiresnaking. The bottom pass may only spend a fraction
	// of the remaining capacitance budget: the top-down passes recover far
	// more skew per fF and must not be starved in later cycles.
	for _, step := range []float64{150, 50} {
		step := step
		if err := cx.improveLoop("bwsn", MinBoth, func(res []*analysis.Result) bool {
			changed := snakeBudgetPass(cx, res, twn, lwn, 0.7, true, step, 0.4)
			cx.logf("bwsn: snaked %d sink edges (step %.0f)", changed, step)
			return changed > 0
		}); err != nil {
			return err
		}
	}
	return nil
}
