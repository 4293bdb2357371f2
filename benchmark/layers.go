package main

import (
	"strings"
	"time"
)

const traceFile = "trace.json"

// spanAgg sums the spans of one name inside one operation.
type spanAgg struct {
	calls       int
	total, self time.Duration
	alloc       uint64
}

// libraryLayers turns a traced library run's spans and operation records
// into per-layer metrics per operation: for every input the mean over its
// traced operations, averaged over the inputs.
func (rep *childReport) libraryLayers(rec *recorder) {
	self := selfTimes(rec.spans)
	var roots []int
	for i, s := range rec.spans {
		if s.Parent < 0 {
			roots = append(roots, i)
		}
	}
	perKey := map[string][]map[string]float64{}
	var keys []string
	var cne []float64
	var covered, opTotal time.Duration
	var sims, reuses int
	k := 0
	for _, op := range rep.Ops {
		if !op.Traced {
			continue
		}
		if k >= len(roots) {
			break
		}
		lo, hi := roots[k], len(rec.spans)
		if k+1 < len(roots) {
			hi = roots[k+1]
		}
		k++
		aggs := map[string]*spanAgg{}
		for i := lo + 1; i < hi; i++ {
			s := rec.spans[i]
			a := aggs[s.Name]
			if a == nil {
				a = &spanAgg{}
				aggs[s.Name] = a
			}
			a.calls++
			a.total += s.dur()
			a.self += self[i]
			a.alloc += s.Alloc
			if s.Name == "spice.cne" {
				cne = append(cne, s.dur().Seconds())
			}
		}
		root := rec.spans[lo]
		opTotal += root.dur()
		covered += root.dur() - self[lo]
		sims += op.StageSims
		reuses += op.StageReuses

		total := func(n string) float64 {
			if a := aggs[n]; a != nil {
				return a.total.Seconds()
			}
			return 0
		}
		selfOf := func(n string) float64 {
			if a := aggs[n]; a != nil {
				return a.self.Seconds()
			}
			return 0
		}
		allocMB := func(n string) float64 {
			if a := aggs[n]; a != nil {
				return float64(a.alloc) / mib
			}
			return 0
		}
		m := map[string]float64{
			"bench.read_s":              total("bench.read"),
			"core.decode_s":             total("core.decode"),
			"core.encode_s":             total("core.encode"),
			"core.envelope_mb":          float64(op.Bytes) / mib,
			"core.self_s":               selfOf("core.synthesize") + selfOf("core.eco_pass"),
			"dme.zst_s":                 total("dme.zst"),
			"dme.zst_alloc_mb":          allocMB("dme.zst"),
			"route.legalize_s":          total("route.legalize"),
			"buffering.buffer_s":        total("buffering.buffer"),
			"buffering.buffer_alloc_mb": allocMB("buffering.buffer"),
			"buffering.polarity_s":      total("buffering.polarity"),
			"eco.delta_s":               total("eco.delta"),
			"eco.restore_s":             total("eco.restore"),
			"eco.apply_s":               total("eco.apply"),
			"flow.arm_s":                total("flow.arm"),
			"flow.arm_alloc_mb":         allocMB("flow.arm"),
			"spice.cne_s":               total("spice.cne"),
			"spice.runs":                float64(op.Runs),
			"spice.stage_sims":          float64(op.StageSims),
			"spice.stage_reuses":        float64(op.StageReuses),
			"go.alloc_mb":               op.AllocMB,
			"go.gc_cycles":              float64(op.GCCycles),
			"go.gc_pause_s":             op.GCPauseS,
		}
		if a := aggs["spice.cne"]; a != nil {
			m["spice.cne_calls"] = float64(a.calls)
		}
		for name, a := range aggs {
			if strings.HasPrefix(name, "opt.") {
				m[name+"_s"] = a.total.Seconds()
				m["opt.self_s"] += a.self.Seconds()
			}
		}
		if _, seen := perKey[op.Key]; !seen {
			keys = append(keys, op.Key)
		}
		perKey[op.Key] = append(perKey[op.Key], m)
	}

	layers := map[string]float64{}
	for _, key := range keys {
		ms := perKey[key]
		for _, m := range ms {
			for name, v := range m {
				layers[name] += v / float64(len(ms)*len(keys))
			}
		}
	}
	if len(cne) > 0 {
		layers["spice.cne_p50_s"] = median(cne)
	}
	if sims+reuses > 0 {
		layers["spice.stage_reuse_ratio"] = float64(reuses) / float64(sims+reuses)
	}
	if opTotal > 0 {
		layers["trace.coverage_pct"] = 100 * covered.Seconds() / opTotal.Seconds()
	}
	traced := opSeconds(rep.Ops, func(op opRecord) bool { return op.Traced })
	untraced := opSeconds(rep.Ops, func(op opRecord) bool { return !op.Traced })
	if untraced > 0 {
		layers["trace.overhead_pct"] = 100 * (traced/untraced - 1)
	}
	for name, v := range qualityMetrics(rep.Ops) {
		layers[name] = v
	}
	rep.Layers = layers
	rep.SelfTimes = layerTable(rec.spans)
	rep.OpTotalS = opTotal.Seconds()
}

// opSeconds is the wall time of one operation over the operations keep
// selects: the median time of each input's successful operations, averaged
// over the inputs, so every input weighs the same however many times the
// window let it run.
func opSeconds(ops []opRecord, keep func(opRecord) bool) float64 {
	byKey := map[string][]float64{}
	for _, op := range ops {
		if op.Err == "" && keep(op) {
			byKey[op.Key] = append(byKey[op.Key], op.Seconds)
		}
	}
	sum := 0.0
	for _, xs := range byKey {
		sum += median(xs)
	}
	return sum / float64(max(len(byKey), 1))
}

// qualityMetrics is the mean final skew, CLR and capacitance over the
// distinct designs of a library run.
func qualityMetrics(ops []opRecord) map[string]float64 {
	seen := map[string]bool{}
	var skew, clr, capFF float64
	for _, op := range ops {
		if op.Err != "" || seen[op.Key] {
			continue
		}
		seen[op.Key] = true
		skew += op.Skew
		clr += op.CLR
		capFF += op.CapFF
	}
	if len(seen) == 0 {
		return nil
	}
	n := float64(len(seen))
	return map[string]float64{"eval.skew_ps": skew / n, "eval.clr_ps": clr / n, "eval.cap_pf": capFF / n / 1000}
}
