// Package analysis extracts RC netlists from clock trees and provides fast
// closed-form delay evaluators: Elmore (first moment) and a two-pole
// moment-matching model (D2M), in the spirit of the Arnoldi/AWE reduced-order
// evaluators the paper lists as SPICE alternatives. The accurate transient
// engine lives in package spice and shares the netlist extraction here.
package analysis

import (
	"fmt"
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
	Node int // RC node index within the stage
	Slot int // tree slot of the buffer whose input sits here
}

// Meas marks a sink measurement node.
type Meas struct {
	Node int // RC node index within the stage
	Slot int // tree slot of the sink
}

// Stage is one driver (the clock source or a buffer) plus the RC tree it
// drives, ending at sink pins and downstream buffer inputs. RC nodes are
// stored in parent-before-child order; node 0 is the driver output, and
// R[0] is a placeholder (the driver is modeled separately by evaluators).
type Stage struct {
	Driver int            // driver slot, -1 for the source stage
	Buf    tech.Composite // the driver's composite (zero for the source stage)
	Index  int            // position in Net.Stages
	Parent int            // index of the upstream stage, -1 for the source stage
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

// Key identifies the stage by its driver: the buffer's slot, or -1 for
// the source stage. Per-stage results and
// caches are keyed on it.
func (s *Stage) Key() int { return s.Driver }

// TotalCap returns the sum of grounded capacitance in the stage (fF),
// including buffer input pins and sink loads attached to it.
func (s *Stage) TotalCap() float64 {
	var c float64
	for _, v := range s.C {
		c += v
	}
	return c
}

// Net is the staged RC netlist of a clock tree. A Net can be extracted
// into again and again: each Extract reuses the stage storage of the last
// one, so a caller that keeps its Net pays the RC-array growth once, not
// per evaluation.
type Net struct {
	Tech    *tech.Tech
	SourceR float64  // clock source output resistance, kΩ
	Stages  []*Stage // topologically ordered, Stages[0] is the source stage
	// Slots is the extracted arena's slot count, the length of every
	// Result slice; Root is its root slot, where results put the source
	// stage's StageSlew.
	Slots, Root int
}

// StageSlot returns the slot a Result's StageSlew keeps stage s under:
// its driver's, or the root's for the source stage.
func (net *Net) StageSlot(s *Stage) int {
	if s.Driver < 0 {
		return net.Root
	}
	return s.Driver
}

// Extract re-extracts net from the arena a, subdividing wires into
// π-segments of at most maxSeg µm (DefaultMaxSeg when maxSeg <= 0). A dead
// root, a dead or dangling child slot, a child whose parent slot disagrees,
// or a buffer without a composite is an error; an arena that passes
// Validate always extracts.
func (net *Net) Extract(a *ctree.Arena, maxSeg float64) error {
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSeg
	}
	net.Tech, net.SourceR = a.Tech, a.SourceR
	net.Slots, net.Root = a.Len(), int(a.Root())
	net.Stages = net.Stages[:0]
	b := stageBuilder{net: net, a: a, maxSeg: maxSeg}
	root := a.Root()
	if !b.live(root) {
		return fmt.Errorf("analysis: extract: dead root slot %d", root)
	}
	return b.stage(root, -1, tech.Composite{}, -1, -1)
}

// stageBuilder walks an arena into a Net's stages.
type stageBuilder struct {
	net    *Net
	a      *ctree.Arena
	maxSeg float64
}

// live reports whether slot i is in range and alive.
func (b *stageBuilder) live(i int32) bool {
	return i >= 0 && int(i) < b.a.Len() && b.a.Alive.Test(int(i))
}

// newStage returns the next stage of the net, recycling a stage the last
// extraction left behind the slice's length.
func (b *stageBuilder) newStage() *Stage {
	net := b.net
	i := len(net.Stages)
	if i < cap(net.Stages) {
		net.Stages = net.Stages[:i+1]
		if s := net.Stages[i]; s != nil {
			s.R, s.C, s.Par = s.R[:0], s.C[:0], s.Par[:0]
			s.Loads, s.Sinks, s.Children = s.Loads[:0], s.Sinks[:0], s.Children[:0]
			return s
		}
	} else {
		net.Stages = append(net.Stages, nil)
	}
	s := new(Stage)
	net.Stages[i] = s
	return s
}

// addEdgeSegs subdivides the parent-edge wire of slot c into the stage,
// starting at RC node 'at', and returns the far-end RC node.
func (b *stageBuilder) addEdgeSegs(s *Stage, c int32, at int) int {
	length := b.a.EdgeLen(c)
	w := b.net.Tech.Wires[b.a.WidthIdx[c]]
	rTot := w.RPerUm * length
	cTot := w.CPerUm * length
	k := int(math.Ceil(length / b.maxSeg))
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

// stage extracts the stage whose RC tree starts at slot start, driven by
// the composite buf of the buffer at slot driver (driver -1 and a zero
// composite for the source stage, which starts at the root), appends it to
// the net and signs it. Child stages discovered at buffer inputs are built
// depth-first at the point the walk reaches them.
func (b *stageBuilder) stage(start int32, driver int, buf tech.Composite, parentStage, inputNode int) error {
	net := b.net
	s := b.newStage()
	s.Driver, s.Buf = driver, buf
	s.Index, s.Parent, s.InputNode = len(net.Stages)-1, parentStage, inputNode
	s.R = append(s.R, 0)
	s.C = append(s.C, buf.Cout())
	s.Par = append(s.Par, -1)
	if parentStage >= 0 {
		net.Stages[parentStage].Children = append(net.Stages[parentStage].Children, s.Index)
	}
	if err := b.walk(s, start, 0); err != nil {
		return err
	}
	s.sig = stageSig(s, net.SourceR)
	return nil
}

// walk appends the subtree below slot n, whose RC node in s is at.
func (b *stageBuilder) walk(s *Stage, n int32, at int) error {
	a := b.a
	for _, c := range a.Children(n) {
		switch {
		case !b.live(c):
			return fmt.Errorf("analysis: extract: slot %d has dangling child %d", n, c)
		case a.Parent[c] != n:
			return fmt.Errorf("analysis: extract: child %d of slot %d has parent %d", c, n, a.Parent[c])
		}
		far := b.addEdgeSegs(s, c, at)
		switch a.Kind[c] {
		case ctree.Buffer:
			comp, ok := a.Buf(c)
			if !ok {
				return fmt.Errorf("analysis: extract: buffer %d missing composite", c)
			}
			s.C[far] += comp.Cin()
			s.Loads = append(s.Loads, Load{Node: far, Slot: int(c)})
			if err := b.stage(c, int(c), comp, s.Index, far); err != nil {
				return err
			}
		case ctree.Sink:
			s.C[far] += a.SinkCap[c]
			s.Sinks = append(s.Sinks, Meas{Node: far, Slot: int(c)})
		default:
			if err := b.walk(s, c, far); err != nil {
				return err
			}
		}
	}
	return nil
}

// stageSig hashes everything that determines a stage's electrical behavior:
// the driver (composite parameters, or the tree's source resistance), the
// subdivided RC arrays, and the positions and identities of buffer loads and
// sink measurement points. FNV-1a over the raw float bits — exact content
// equality, no tolerance.
func stageSig(s *Stage, sourceR float64) uint64 {
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
	if s.Driver < 0 {
		mix(0)
		mixF(sourceR)
	} else {
		mix(1)
		mix(uint64(s.Driver))
		mix(uint64(s.Buf.N))
		mixF(s.Buf.Type.Cin)
		mixF(s.Buf.Type.Cout)
		mixF(s.Buf.Type.Rout)
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
		mix(uint64(ld.Slot))
	}
	mix(uint64(len(s.Sinks)))
	for _, m := range s.Sinks {
		mix(uint64(m.Node))
		mix(uint64(m.Slot))
	}
	return h
}

// DriverR returns the effective driver resistance (kΩ) of stage s at the
// given corner. The source driver and buffer composites weaken identically
// as supply drops (reduced gate overdrive).
func (net *Net) DriverR(s *Stage, corner tech.Corner) float64 {
	t := net.Tech
	scale := (t.VddRef - t.Vt) / (corner.Vdd - t.Vt)
	if corner.Vdd <= t.Vt {
		return 1e12
	}
	if s.Driver < 0 {
		return net.SourceR * scale
	}
	return t.RoutAt(s.Buf, corner.Vdd)
}
