package opt

import (
	"math"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/slack"
	"contango/internal/tech"
)

// Trunk returns the chain of slots from the root's child down to (and
// excluding) the first slot with more than one child — the long wire DME
// trees drive from the chip boundary to the center, which the paper notes
// carries 1/3 to 1/2 of the total insertion delay (Section IV-H).
func Trunk(a *ctree.Arena) []int32 {
	var out []int32
	if a.ChildLen[a.Root()] != 1 {
		return out
	}
	cur := a.Children(a.Root())[0]
	for a.ChildLen[cur] == 1 {
		out = append(out, cur)
		cur = a.Children(cur)[0]
	}
	return out
}

// trunkBuffers filters the trunk chain to its buffer slots.
func trunkBuffers(a *ctree.Arena) []int32 {
	var out []int32
	for _, n := range Trunk(a) {
		if a.Kind[n] == ctree.Buffer {
			out = append(out, n)
		}
	}
	return out
}

// branchBuffers returns buffers within `levels` branching levels below the
// trunk (the region the paper sizes up with capacitance borrowing), and the
// bottom-level buffers (those whose subtree contains no further buffers) the
// borrowing downsizes.
func branchBuffers(a *ctree.Arena, levels int) (upper, bottom []int32) {
	trunk := map[int32]bool{}
	for _, n := range Trunk(a) {
		trunk[n] = true
	}
	var hasBuffer func(m int32) bool
	hasBuffer = func(m int32) bool {
		for _, c := range a.Children(m) {
			if a.Kind[c] == ctree.Buffer || hasBuffer(c) {
				return true
			}
		}
		return false
	}
	var walk func(n int32, depth int)
	walk = func(n int32, depth int) {
		d := depth
		if a.Kind[n] == ctree.Buffer && !trunk[n] {
			if !hasBuffer(n) {
				bottom = append(bottom, n)
			} else if depth <= levels {
				upper = append(upper, n)
			}
			d = depth + 1
		}
		for _, c := range a.Children(n) {
			walk(c, d)
		}
	}
	walk(a.Root(), 0)
	return upper, bottom
}

// batchOf returns the sizing granularity for a composite: the paper sizes
// small-inverter groups in batches of 8 and large inverters singly.
func batchOf(c tech.Composite) int {
	if c.Type.Name == "Small" {
		return 8
	}
	return 1
}

// maxGapFor returns the largest buffer-to-buffer wire run (µm) a composite
// can drive without slew risk, used by interleaving.
func maxGapFor(t *tech.Tech, c tech.Composite, widthIdx int) float64 {
	safe := 0.8 * t.SlewLimit / (2.2 * c.Rout())
	perUm := t.Wires[widthIdx].CPerUm
	gap := (safe - c.Cin()) / perUm
	if gap < 100 {
		gap = 100
	}
	return gap
}

// BufferSizing is the paper's TBSZ step (Sections IV-H and IV-I): iterative
// sizing of the trunk inverter chain with the schedule p_i = 100/(i+3)%,
// buffer sliding and interleaving to avoid slew violations, then sizing of
// the first branch levels paid for by downsizing bottom-level buffers
// (capacitance borrowing). The objective is CLR; the paper accepts that
// nominal skew may rise slightly, to be recovered by the wire passes.
func BufferSizing(cx *Context) error {
	a := cx.arena()
	iter := 0
	if err := cx.improveLoop("tbsz-trunk", MinCLR, func(res []*analysis.Result) bool {
		iter++
		p := 1.0 / float64(iter+3) // p_i = 100/(i+3)%
		bufs := trunkBuffers(a)
		if len(bufs) == 0 {
			return false
		}
		changed := 0
		head := cx.capHeadroom()
		for _, b := range bufs {
			buf, _ := a.Buf(b)
			batch := batchOf(buf)
			grow := int(math.Ceil(float64(buf.N) * p / float64(batch)))
			if grow < 1 {
				grow = 1
			}
			newN := buf.N + grow*batch
			if newN > a.Tech.MaxParallel {
				continue
			}
			addCap := (tech.Composite{Type: buf.Type, N: newN}).CapCost() - buf.CapCost()
			if addCap > head {
				continue
			}
			head -= addCap
			a.BufN[b] = int32(newN)
			changed++
		}
		if changed == 0 {
			return false
		}
		slideAndInterleave(cx)
		cx.logf("tbsz-trunk: sized up %d trunk buffers by %.1f%%", changed, 100*p)
		return true
	}); err != nil {
		return err
	}

	// Branch sizing with capacitance borrowing.
	return cx.improveLoop("tbsz-branch", MinCLR, func(res []*analysis.Result) bool {
		upper, bottom := branchBuffers(a, 4)
		if len(upper) == 0 {
			return false
		}
		head := cx.capHeadroom()
		var borrowed float64
		// Borrow: shrink bottom-level buffers by one batch where possible.
		for _, b := range bottom {
			buf, _ := a.Buf(b)
			batch := batchOf(buf)
			if buf.N <= batch {
				continue
			}
			before := buf.CapCost()
			buf.N -= batch
			a.BufN[b] = int32(buf.N)
			borrowed += before - buf.CapCost()
		}
		changed := 0
		for _, b := range upper {
			buf, _ := a.Buf(b)
			batch := batchOf(buf)
			newN := buf.N + batch
			if newN > a.Tech.MaxParallel {
				continue
			}
			addCap := (tech.Composite{Type: buf.Type, N: newN}).CapCost() - buf.CapCost()
			if addCap > head+borrowed {
				continue
			}
			if addCap <= borrowed {
				borrowed -= addCap
			} else {
				head -= addCap - borrowed
				borrowed = 0
			}
			a.BufN[b] = int32(newN)
			changed++
		}
		cx.logf("tbsz-branch: sized %d branch buffers (borrowed bottom cap)", changed)
		return changed > 0
	})
}

// SkewBufferSizing downsizes buffers on fast paths: a weaker composite both
// slows the path (reducing skew) and releases capacitance for the snaking
// passes — the skew-directed form of the paper's capacitance borrowing.
// Consumed slack is tracked along each root-to-sink path so stacked
// downsizings do not overshoot.
func SkewBufferSizing(cx *Context) error {
	a := cx.arena()
	limit := a.Tech.SlewLimit
	return cx.improveLoop("sbsz", MinSkew, func(res []*analysis.Result) bool {
		slk := slack.Compute(a, res)
		stageSlew := worstStageSlew(a, res)
		changed := 0
		topDown(a, func(n int32, used float64) float64 {
			if a.Kind[n] != ctree.Buffer {
				return used
			}
			buf, _ := a.Buf(n)
			batch := batchOf(buf)
			if buf.N <= batch {
				return used
			}
			weaker := tech.Composite{Type: buf.Type, N: buf.N - batch}
			var load float64
			for _, c := range a.Children(n) {
				load += a.LoadCap(c)
			}
			load += buf.Cout()
			est := (weaker.Rout() - buf.Rout()) * load * 1.5
			budget := slk.EdgeSlow[int(n)] - used
			newSlew := stageSlew[int(n)] * weaker.Rout() / buf.Rout()
			if est > 0 && est < budget*0.7 && newSlew < 0.88*limit {
				a.BufN[n] = int32(weaker.N)
				used += est
				changed++
			}
			return used
		})
		cx.logf("sbsz: downsized %d buffers", changed)
		return changed > 0
	})
}

// slideAndInterleave moves trunk buffers up their corridors when their
// upstream wire load risks slew (bigger inputs raise the upstream load), and
// inserts repeater pairs when two consecutive drivers drift too far apart.
// Pairs keep the inversion parity of every sink unchanged.
func slideAndInterleave(cx *Context) {
	a := cx.arena()
	for _, b := range trunkBuffers(a) {
		if a.ChildLen[b] != 1 {
			continue
		}
		route := a.Route(b)
		up := route.Length()
		buf, _ := a.Buf(b)
		maxUp := maxGapFor(a.Tech, buf, int(a.WidthIdx[b]))
		if up > maxUp {
			newDist := maxUp * 0.9
			if cx.Obs != nil {
				// Keep the slid buffer off obstacles: walk further up in
				// small steps until the site is legal.
				for newDist > 0 && cx.Obs.BlocksPoint(route.At(newDist)) {
					newDist -= 25
				}
				if newDist < 0 {
					newDist = 0
				}
			}
			a.SlideDegree2(b, newDist)
		}
	}
	// Interleave: inspect trunk edges for over-long driver gaps.
	for _, n := range Trunk(a) {
		if a.Kind[n] != ctree.Buffer || a.ChildLen[n] != 1 {
			continue
		}
		child := a.Children(n)[0]
		gap := a.Route(child).Length()
		buf, _ := a.Buf(n)
		maxGap := maxGapFor(a.Tech, buf, int(a.WidthIdx[child]))
		if gap <= maxGap {
			continue
		}
		// Insert an inverter pair at thirds of the gap: parity preserved.
		b1 := a.InsertOnEdge(child, gap/3, ctree.Buffer)
		a.SetBuf(b1, buf)
		b2 := a.InsertOnEdge(child, gap/3, ctree.Buffer) // now relative to the lower segment
		a.SetBuf(b2, buf)
	}
}
