// Package analysis extracts RC netlists from clock trees and provides fast
// closed-form delay evaluators: Elmore (first moment) and a two-pole
// moment-matching model (D2M), in the spirit of the Arnoldi/AWE reduced-order
// evaluators the paper lists as SPICE alternatives. The accurate transient
// engine lives in package spice and shares the netlist extraction here.
package analysis

import (
	"math"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// DefaultMaxSeg is the default maximum RC-segment length (µm). Long wires
// are subdivided into π-segments no longer than this so that resistive
// shielding in long wires — which the paper notes closed-form models miss —
// is captured by the distributed model.
const DefaultMaxSeg = 100.0

// minR is the smallest segment resistance (kΩ); zero-length edges are
// clamped so transient integration stays well-conditioned.
const minR = 1e-9

// Load marks a stage-boundary node: the input pin of a downstream buffer.
type Load struct {
	Node int         // RC node index within the stage
	Buf  *ctree.Node // the buffer whose input sits here
}

// Meas marks a sink measurement node.
type Meas struct {
	Node int
	Sink *ctree.Node
}

// Stage is one driver (the clock source or a buffer) plus the RC tree it
// drives, ending at sink pins and downstream buffer inputs. RC nodes are
// stored in parent-before-child order; node 0 is the driver output, and
// R[0] is a placeholder (the driver is modeled separately by evaluators).
type Stage struct {
	Driver *ctree.Node // nil for the source stage
	Index  int         // position in Net.Stages
	Parent int         // index of the upstream stage, -1 for the source stage
	// InputNode is the RC node (in the parent stage) where this stage's
	// driver input pin sits; -1 for the source stage.
	InputNode int

	R        []float64 // resistance to parent RC node, kΩ
	C        []float64 // grounded capacitance, fF
	Par      []int     // parent RC node index, -1 for node 0
	Loads    []Load
	Sinks    []Meas
	Children []int // downstream stage indices

	// sig is the stage's content signature (stageSig).
	sig uint64
}

// Sig returns the stage's content signature: equal signatures mean
// electrically identical stages (same driver parameters, RC arrays, loads
// and sinks). The incremental transient engine validates cached stage
// results against it.
func (s *Stage) Sig() uint64 { return s.sig }

// Key identifies the stage by its driver: the buffer's node ID, or -1 for
// the source stage. Per-stage results and caches are keyed on it.
func (s *Stage) Key() int {
	if s.Driver == nil {
		return -1
	}
	return s.Driver.ID
}

// TotalCap returns the sum of grounded capacitance in the stage (fF),
// including buffer input pins and sink loads attached to it.
func (s *Stage) TotalCap() float64 {
	var c float64
	for _, v := range s.C {
		c += v
	}
	return c
}

// Net is the staged RC netlist of a clock tree.
type Net struct {
	Tree   *ctree.Tree
	Stages []*Stage // topologically ordered, Stages[0] is the source stage
}

// Extract builds the staged RC netlist for tr, subdividing wires into
// π-segments of at most maxSeg µm (DefaultMaxSeg when maxSeg <= 0).
func Extract(tr *ctree.Tree, maxSeg float64) *Net {
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSeg
	}
	net := &Net{Tree: tr}
	buildStage(net, tr, maxSeg, nil, -1, -1)
	return net
}

// addEdgeSegs subdivides the wire of tree node n (edge parent->n) into the
// stage, starting at RC node 'at', and returns the far-end RC node.
func addEdgeSegs(s *Stage, tr *ctree.Tree, maxSeg float64, n *ctree.Node, at int) int {
	length := n.EdgeLen()
	w := tr.Tech.Wires[n.WidthIdx]
	rTot := w.RPerUm * length
	cTot := w.CPerUm * length
	k := int(math.Ceil(length / maxSeg))
	if k < 1 {
		k = 1
	}
	rSeg := rTot / float64(k)
	if rSeg < minR {
		rSeg = minR
	}
	cHalf := cTot / float64(k) / 2
	cur := at
	for i := 0; i < k; i++ {
		s.C[cur] += cHalf
		s.R = append(s.R, rSeg)
		s.C = append(s.C, cHalf)
		s.Par = append(s.Par, cur)
		cur = len(s.R) - 1
	}
	return cur
}

// buildStage extracts one stage of tr rooted at driver (nil for the source
// stage), appends it to net and signs it. Child stages discovered at buffer
// inputs are built depth-first at the point the walk reaches them.
func buildStage(net *Net, tr *ctree.Tree, maxSeg float64, driver *ctree.Node, parentStage, inputNode int) {
	s := &Stage{
		Driver:    driver,
		Index:     len(net.Stages),
		Parent:    parentStage,
		InputNode: inputNode,
	}
	rootCap := 0.0
	start := tr.Root
	if driver != nil {
		rootCap = driver.Buf.Cout()
		start = driver
	}
	s.R = append(s.R, 0)
	s.C = append(s.C, rootCap)
	s.Par = append(s.Par, -1)
	net.Stages = append(net.Stages, s)
	if parentStage >= 0 {
		net.Stages[parentStage].Children = append(net.Stages[parentStage].Children, s.Index)
	}
	var walk func(n *ctree.Node, at int)
	walk = func(n *ctree.Node, at int) {
		for _, c := range n.Children {
			far := addEdgeSegs(s, tr, maxSeg, c, at)
			switch c.Kind {
			case ctree.Buffer:
				s.C[far] += c.Buf.Cin()
				s.Loads = append(s.Loads, Load{Node: far, Buf: c})
				buildStage(net, tr, maxSeg, c, s.Index, far)
			case ctree.Sink:
				s.C[far] += c.SinkCap
				s.Sinks = append(s.Sinks, Meas{Node: far, Sink: c})
			default:
				walk(c, far)
			}
		}
	}
	walk(start, 0)
	s.sig = stageSig(s, tr)
}

// stageSig hashes everything that determines a stage's electrical behavior:
// the driver (composite parameters, or the tree's source resistance), the
// subdivided RC arrays, and the positions and identities of buffer loads and
// sink measurement points. FNV-1a over the raw float bits — exact content
// equality, no tolerance.
func stageSig(s *Stage, tr *ctree.Tree) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mixF := func(v float64) { mix(math.Float64bits(v)) }
	if s.Driver == nil {
		mix(0)
		mixF(tr.SourceR)
	} else {
		mix(1)
		mix(uint64(s.Driver.ID))
		mix(uint64(s.Driver.Buf.N))
		mixF(s.Driver.Buf.Type.Cin)
		mixF(s.Driver.Buf.Type.Cout)
		mixF(s.Driver.Buf.Type.Rout)
	}
	mix(uint64(len(s.R)))
	for i := range s.R {
		mixF(s.R[i])
		mixF(s.C[i])
		mix(uint64(s.Par[i] + 1))
	}
	mix(uint64(len(s.Loads)))
	for _, ld := range s.Loads {
		mix(uint64(ld.Node))
		mix(uint64(ld.Buf.ID))
	}
	mix(uint64(len(s.Sinks)))
	for _, m := range s.Sinks {
		mix(uint64(m.Node))
		mix(uint64(m.Sink.ID))
	}
	return h
}

// DriverR returns the effective driver resistance (kΩ) of stage s at the
// given corner. The source driver and buffer composites weaken identically
// as supply drops (reduced gate overdrive).
func (net *Net) DriverR(s *Stage, corner tech.Corner) float64 {
	t := net.Tree.Tech
	scale := (t.VddRef - t.Vt) / (corner.Vdd - t.Vt)
	if corner.Vdd <= t.Vt {
		return 1e12
	}
	if s.Driver == nil {
		return net.Tree.SourceR * scale
	}
	return t.RoutAt(*s.Driver.Buf, corner.Vdd)
}
