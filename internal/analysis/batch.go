package analysis

import (
	"sync"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// Batched multi-corner stage kernels. The Stage netlist is already a
// structure of arrays (R, C, Par in parent-before-child order), so the
// corner dimension vectorizes naturally: one sweep over the topology
// computes every corner's recurrence, with corner k's values in the
// contiguous block out[k*n:(k+1)*n]. Each corner only ever reads and
// writes its own block, so the floating-point operation sequence per corner
// is identical to a one-corner call with that corner's derates — results do
// not depend on which corners share a batch, which is what lets pvt5 and
// mc:<n> corner sets cost one topology traversal instead of N without
// perturbing a single cached result.

// kernelScratch pools the transient float vectors of the stage kernels:
// two K·n stage vectors, and elmoreStages' per-corner derates and stage
// arrivals.
type kernelScratch struct {
	a, b     []float64
	der, arr []float64
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// stageElmoreBatchInto computes the Elmore delay vectors of K corners in
// one topology sweep. rd, rs and cs hold the per-corner driver resistance
// and interconnect derates; cdown is K·n scratch and d the K·n output
// (corner-major blocks).
func stageElmoreBatchInto(s *Stage, rd, rs, cs, cdown, d []float64) {
	n := len(s.R)
	K := len(rd)
	for k := 0; k < K; k++ {
		ck := cdown[k*n : (k+1)*n : (k+1)*n]
		csk := cs[k]
		for i := 0; i < n; i++ {
			ck[i] = s.C[i] * csk
		}
	}
	for i := n - 1; i >= 1; i-- {
		p := s.Par[i]
		for k := 0; k < K; k++ {
			cdown[k*n+p] += cdown[k*n+i]
		}
	}
	for k := 0; k < K; k++ {
		d[k*n] = rd[k] * cdown[k*n]
	}
	for i := 1; i < n; i++ {
		p := s.Par[i]
		ri := s.R[i]
		for k := 0; k < K; k++ {
			d[k*n+i] = d[k*n+p] + ri*rs[k]*cdown[k*n+i]
		}
	}
}

// stageMomentsBatchInto computes the first two moment vectors of K corners
// in one topology sweep. cdown and b are K·n scratch, m1 and m2 the K·n
// outputs (corner-major blocks).
func stageMomentsBatchInto(s *Stage, rd, rs, cs, cdown, b, m1, m2 []float64) {
	n := len(s.R)
	K := len(rd)
	stageElmoreBatchInto(s, rd, rs, cs, cdown, m1)
	for i := range b[:K*n] {
		b[i] = 0
	}
	for i := n - 1; i >= 0; i-- {
		p := s.Par[i]
		ci := s.C[i]
		for k := 0; k < K; k++ {
			b[k*n+i] += ci * cs[k] * m1[k*n+i]
			if p >= 0 {
				b[k*n+p] += b[k*n+i]
			}
		}
	}
	for k := 0; k < K; k++ {
		m2[k*n] = rd[k] * b[k*n]
	}
	for i := 1; i < n; i++ {
		p := s.Par[i]
		ri := s.R[i]
		for k := 0; k < K; k++ {
			m2[k*n+i] = m2[k*n+p] + ri*rs[k]*b[k*n+i]
		}
	}
}

// StageElmoreMaxAt returns the largest per-node Elmore delay of the stage
// at the given corner — the time constant the transient engine sizes its
// integration window from — without retaining the vectors. It runs the
// batched kernel with one corner on pooled scratch, so the call is
// allocation-free.
func StageElmoreMaxAt(s *Stage, rd float64, corner tech.Corner) float64 {
	n := len(s.R)
	ks := kernelPool.Get().(*kernelScratch)
	ks.a = growFloats(ks.a, n)
	ks.b = growFloats(ks.b, n)
	der := [3]float64{rd, corner.RScale(), corner.CScale()}
	stageElmoreBatchInto(s, der[0:1], der[1:2], der[2:3], ks.a, ks.b)
	m := 0.0
	for _, v := range ks.b {
		if v > m {
			m = v
		}
	}
	kernelPool.Put(ks)
	return m
}

// cornerDerates fills the per-corner derate vectors for one stage.
func cornerDerates(net *Net, s *Stage, corners []tech.Corner, rd, rs, cs []float64) {
	for k, c := range corners {
		rd[k] = net.DriverR(s, c)
		rs[k] = c.RScale()
		cs[k] = c.CScale()
	}
}

// EvaluateCorners implements Evaluator for the plain Elmore
// evaluator: one extraction, then every stage's corners computed by the
// batched kernel.
func (e *Elmore) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*Result, error) {
	var net Net
	if err := net.Extract(tr.Arena(), e.MaxSeg); err != nil {
		return nil, err
	}
	return elmoreCorners(&net, corners), nil
}

// elmoreCorners runs the Elmore evaluation of every corner over an
// extracted netlist.
func elmoreCorners(net *Net, corners []tech.Corner) []*Result {
	limit := net.Tech.SlewLimit
	results := make([]*Result, len(corners))
	for k, c := range corners {
		results[k] = newResult(c)
	}
	elmoreStages(net, corners, func(s *Stage, k int, base float64, d []float64) {
		res := results[k]
		key := s.Key()
		for _, m := range s.Sinks {
			t := base + d[m.Node]
			res.Rise[m.Slot] = t
			res.Fall[m.Slot] = t
			res.SinkSlew[m.Slot] = ln9 * d[m.Node]
		}
		for i := range d {
			slew := ln9 * d[i]
			if slew > res.MaxSlew {
				res.MaxSlew = slew
			}
			if slew > res.StageSlew[key] {
				res.StageSlew[key] = slew
			}
			if slew > limit {
				res.SlewViol++
			}
		}
	})
	return results
}

// ElmoreWorst returns, at one corner, the two numbers of an Elmore Result
// the composite sweep judges a candidate by: the latest sink arrival (the
// max of Result.MinMaxRise, 0 without sinks) and SlewViol. It runs the
// same recurrence as Elmore.Evaluate, bit for bit, without building the
// per-sink maps.
func ElmoreWorst(net *Net, corner tech.Corner) (worst float64, slewViol int) {
	limit := net.Tech.SlewLimit
	first := true
	elmoreStages(net, []tech.Corner{corner}, func(s *Stage, _ int, base float64, d []float64) {
		for _, m := range s.Sinks {
			if t := base + d[m.Node]; first || t > worst {
				worst, first = t, false
			}
		}
		for i := range d {
			if ln9*d[i] > limit {
				slewViol++
			}
		}
	})
	return worst, slewViol
}

// elmoreStages runs the Elmore recurrence of every corner over net: one
// batched kernel sweep per stage, in topological order, with each stage's
// input arrival propagated to its child stages. visit sees stage s at
// corner k with its input arrival base and its RC nodes' delays d (a view
// into pooled scratch, valid during the call).
func elmoreStages(net *Net, corners []tech.Corner, visit func(s *Stage, k int, base float64, d []float64)) {
	K := len(corners)
	ns := len(net.Stages)
	ks := kernelPool.Get().(*kernelScratch)
	ks.der = growFloats(ks.der, 3*K)
	rd, rs, cs := ks.der[:K], ks.der[K:2*K], ks.der[2*K:]
	ks.arr = growFloats(ks.arr, K*ns)
	for k := 0; k < K; k++ {
		ks.arr[k*ns] = 0 // the source stage launches at t = 0
	}
	for _, s := range net.Stages {
		n := len(s.R)
		cornerDerates(net, s, corners, rd, rs, cs)
		ks.a = growFloats(ks.a, K*n)
		ks.b = growFloats(ks.b, K*n)
		stageElmoreBatchInto(s, rd, rs, cs, ks.a, ks.b)
		for k := 0; k < K; k++ {
			d := ks.b[k*n : (k+1)*n]
			arrivals := ks.arr[k*ns : (k+1)*ns]
			base := arrivals[s.Index]
			for _, ci := range s.Children {
				arrivals[ci] = base + d[net.Stages[ci].InputNode]
			}
			visit(s, k, base, d)
		}
	}
	kernelPool.Put(ks)
}

// EvaluateCorners implements Evaluator for the plain TwoPole
// evaluator with the batched moment kernel.
func (e *TwoPole) EvaluateCorners(tr *ctree.Tree, corners []tech.Corner) ([]*Result, error) {
	var net Net
	if err := net.Extract(tr.Arena(), e.MaxSeg); err != nil {
		return nil, err
	}
	return twoPoleCorners(&net, corners), nil
}

// twoPoleCorners runs the D2M evaluation of every corner over an extracted
// netlist.
func twoPoleCorners(net *Net, corners []tech.Corner) []*Result {
	K := len(corners)
	limit := net.Tech.SlewLimit
	results := make([]*Result, K)
	arrivals := make([][]float64, K)
	for k, c := range corners {
		results[k] = newResult(c)
		arrivals[k] = make([]float64, len(net.Stages))
	}
	rd := make([]float64, K)
	rs := make([]float64, K)
	cs := make([]float64, K)
	ks := kernelPool.Get().(*kernelScratch)
	ks2 := kernelPool.Get().(*kernelScratch)
	for _, s := range net.Stages {
		n := len(s.R)
		cornerDerates(net, s, corners, rd, rs, cs)
		ks.a = growFloats(ks.a, K*n)
		ks.b = growFloats(ks.b, K*n)
		ks2.a = growFloats(ks2.a, K*n)
		ks2.b = growFloats(ks2.b, K*n)
		m1, m2 := ks2.a, ks2.b
		stageMomentsBatchInto(s, rd, rs, cs, ks.a, ks.b, m1, m2)
		key := s.Key()
		for k := range corners {
			m1k := m1[k*n : (k+1)*n]
			m2k := m2[k*n : (k+1)*n]
			res := results[k]
			base := arrivals[k][s.Index]
			for _, ci := range s.Children {
				child := net.Stages[ci]
				arrivals[k][ci] = base + d2m(m1k[child.InputNode], m2k[child.InputNode])
			}
			for _, m := range s.Sinks {
				t := base + d2m(m1k[m.Node], m2k[m.Node])
				res.Rise[m.Slot] = t
				res.Fall[m.Slot] = t
				res.SinkSlew[m.Slot] = slewFromMoments(m1k[m.Node], m2k[m.Node])
			}
			for i := range m1k {
				slew := slewFromMoments(m1k[i], m2k[i])
				if slew > res.MaxSlew {
					res.MaxSlew = slew
				}
				if slew > res.StageSlew[key] {
					res.StageSlew[key] = slew
				}
				if slew > limit {
					res.SlewViol++
				}
			}
		}
	}
	kernelPool.Put(ks)
	kernelPool.Put(ks2)
	return results
}

// newResult allocates an empty Result for one corner.
func newResult(c tech.Corner) *Result {
	return &Result{
		Corner:    c,
		Rise:      make(map[int]float64),
		Fall:      make(map[int]float64),
		SinkSlew:  make(map[int]float64),
		StageSlew: make(map[int]float64),
	}
}

var (
	_ Evaluator = (*Elmore)(nil)
	_ Evaluator = (*TwoPole)(nil)
)
