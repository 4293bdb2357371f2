package opt

import (
	"math"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/slack"
	"contango/internal/tech"
)

// Trunk returns the chain of nodes from the root's child down to (and
// excluding) the first node with more than one child — the long wire DME
// trees drive from the chip boundary to the center, which the paper notes
// carries 1/3 to 1/2 of the total insertion delay (Section IV-H).
func Trunk(tr *ctree.Tree) []*ctree.Node {
	var out []*ctree.Node
	if len(tr.Root.Children) != 1 {
		return out
	}
	cur := tr.Root.Children[0]
	for cur != nil && len(cur.Children) == 1 {
		out = append(out, cur)
		cur = cur.Children[0]
	}
	return out
}

// trunkBuffers filters the trunk chain to its buffer nodes.
func trunkBuffers(tr *ctree.Tree) []*ctree.Node {
	var out []*ctree.Node
	for _, n := range Trunk(tr) {
		if n.Kind == ctree.Buffer {
			out = append(out, n)
		}
	}
	return out
}

// branchBuffers returns buffers within `levels` branching levels below the
// trunk (the region the paper sizes up with capacitance borrowing), and the
// bottom-level buffers (those whose subtree contains no further buffers) the
// borrowing downsizes.
func branchBuffers(tr *ctree.Tree, levels int) (upper, bottom []*ctree.Node) {
	trunk := map[int]bool{}
	for _, n := range Trunk(tr) {
		trunk[n.ID] = true
	}
	var walk func(n *ctree.Node, depth int)
	walk = func(n *ctree.Node, depth int) {
		d := depth
		if n.Kind == ctree.Buffer && !trunk[n.ID] {
			var scan func(m *ctree.Node) bool
			scan = func(m *ctree.Node) bool {
				for _, c := range m.Children {
					if c.Kind == ctree.Buffer {
						return true
					}
					if scan(c) {
						return true
					}
				}
				return false
			}
			if !scan(n) {
				bottom = append(bottom, n)
			} else if depth <= levels {
				upper = append(upper, n)
			}
			d = depth + 1
		}
		for _, c := range n.Children {
			walk(c, d)
		}
	}
	walk(tr.Root, 0)
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
	iter := 0
	if err := cx.improveLoop("tbsz-trunk", MinCLR, func(res []*analysis.Result) bool {
		iter++
		p := 1.0 / float64(iter+3) // p_i = 100/(i+3)%
		bufs := trunkBuffers(cx.Tree)
		if len(bufs) == 0 {
			return false
		}
		changed := 0
		head := cx.capHeadroom()
		for _, b := range bufs {
			batch := batchOf(*b.Buf)
			grow := int(math.Ceil(float64(b.Buf.N) * p / float64(batch)))
			if grow < 1 {
				grow = 1
			}
			newN := b.Buf.N + grow*batch
			if newN > cx.Tree.Tech.MaxParallel {
				continue
			}
			addCap := (tech.Composite{Type: b.Buf.Type, N: newN}).CapCost() - b.Buf.CapCost()
			if addCap > head {
				continue
			}
			head -= addCap
			b.Buf.N = newN
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
		upper, bottom := branchBuffers(cx.Tree, 4)
		if len(upper) == 0 {
			return false
		}
		head := cx.capHeadroom()
		var borrowed float64
		// Borrow: shrink bottom-level buffers by one batch where possible.
		for _, b := range bottom {
			batch := batchOf(*b.Buf)
			if b.Buf.N <= batch {
				continue
			}
			before := b.Buf.CapCost()
			b.Buf.N -= batch
			borrowed += before - b.Buf.CapCost()
		}
		changed := 0
		for _, b := range upper {
			batch := batchOf(*b.Buf)
			newN := b.Buf.N + batch
			if newN > cx.Tree.Tech.MaxParallel {
				continue
			}
			addCap := (tech.Composite{Type: b.Buf.Type, N: newN}).CapCost() - b.Buf.CapCost()
			if addCap > head+borrowed {
				continue
			}
			if addCap <= borrowed {
				borrowed -= addCap
			} else {
				head -= addCap - borrowed
				borrowed = 0
			}
			b.Buf.N = newN
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
	tk := cx.Tree.Tech
	limit := tk.SlewLimit
	return cx.improveLoop("sbsz", MinSkew, func(res []*analysis.Result) bool {
		slk := slack.Compute(cx.Tree, res)
		stageSlew := worstStageSlew(res)
		changed := 0
		topDown(cx.Tree, func(n *ctree.Node, used float64) float64 {
			if n.Kind != ctree.Buffer {
				return used
			}
			batch := batchOf(*n.Buf)
			if n.Buf.N <= batch {
				return used
			}
			weaker := tech.Composite{Type: n.Buf.Type, N: n.Buf.N - batch}
			var load float64
			for _, c := range n.Children {
				load += cx.Tree.LoadCap(c)
			}
			load += n.Buf.Cout()
			est := (weaker.Rout() - n.Buf.Rout()) * load * 1.5
			budget := slk.EdgeSlow[n.ID] - used
			newSlew := stageSlew[n.ID] * weaker.Rout() / n.Buf.Rout()
			if est > 0 && est < budget*0.7 && newSlew < 0.88*limit {
				n.Buf.N = weaker.N
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
	tr := cx.Tree
	for _, b := range trunkBuffers(tr) {
		if len(b.Children) != 1 {
			continue
		}
		up := b.Route.Length()
		maxUp := maxGapFor(tr.Tech, *b.Buf, b.WidthIdx)
		if up > maxUp {
			newDist := maxUp * 0.9
			if cx.Obs != nil {
				// Keep the slid buffer off obstacles: walk further up in
				// small steps until the site is legal.
				for newDist > 0 && cx.Obs.BlocksPoint(b.Route.At(newDist)) {
					newDist -= 25
				}
				if newDist < 0 {
					newDist = 0
				}
			}
			tr.SlideDegree2(b, newDist)
		}
	}
	// Interleave: inspect trunk edges for over-long driver gaps.
	for _, n := range Trunk(tr) {
		if n.Kind != ctree.Buffer || len(n.Children) != 1 {
			continue
		}
		child := n.Children[0]
		gap := child.Route.Length()
		maxGap := maxGapFor(tr.Tech, *n.Buf, child.WidthIdx)
		if gap <= maxGap {
			continue
		}
		// Insert an inverter pair at thirds of the gap: parity preserved.
		comp1 := *n.Buf
		b1 := tr.InsertOnEdge(child, gap/3, ctree.Buffer)
		b1.Buf = &comp1
		comp2 := *n.Buf
		b2 := tr.InsertOnEdge(child, gap/3, ctree.Buffer) // now relative to the lower segment
		b2.Buf = &comp2
	}
}
