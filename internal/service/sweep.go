package service

import (
	"contango/internal/bench"
	"contango/internal/core"
)

// Sweep describes a parameter sweep: each non-empty axis replaces the base
// option's value, and the expansion is the cross product of all axes. An
// empty axis keeps the base value (one point on that axis).
type Sweep struct {
	Gammas         []float64 `json:"gammas,omitempty"`
	LargeInverters []bool    `json:"large_inverters,omitempty"`
	// Plans sweeps the synthesis pipeline: built-in plan names or plan-spec
	// strings (a plan-matrix run in one batch). Round budgets and cycle
	// counts sweep here too, as plan specs ("tbsz:4,twsz:4", "paper").
	Plans []string `json:"plans,omitempty"`
	// Corners sweeps the PVT corner set: built-in names or mc:<n>:<seed>
	// specs (a corner-matrix run in one batch).
	Corners []string `json:"corners,omitempty"`
}

// Expand returns one Options per sweep point, derived from base. With no
// axes set it returns just base.
func (sw Sweep) Expand(base core.Options) []core.Options {
	out := []core.Options{base}
	if len(sw.Plans) > 0 {
		out = expandAxis(out, len(sw.Plans), func(o *core.Options, i int) { o.Plan = sw.Plans[i] })
	}
	if len(sw.Corners) > 0 {
		out = expandAxis(out, len(sw.Corners), func(o *core.Options, i int) { o.Corners = sw.Corners[i] })
	}
	if len(sw.Gammas) > 0 {
		out = expandAxis(out, len(sw.Gammas), func(o *core.Options, i int) { o.Gamma = sw.Gammas[i] })
	}
	if len(sw.LargeInverters) > 0 {
		out = expandAxis(out, len(sw.LargeInverters), func(o *core.Options, i int) { o.LargeInverters = sw.LargeInverters[i] })
	}
	return out
}

func expandAxis(in []core.Options, n int, set func(*core.Options, int)) []core.Options {
	out := make([]core.Options, 0, len(in)*n)
	for _, o := range in {
		for i := 0; i < n; i++ {
			v := o
			set(&v, i)
			out = append(out, v)
		}
	}
	return out
}

// SweepRequests crosses the benchmarks with the sweep points, producing the
// batch request list for Service.SubmitBatch.
func SweepRequests(benches []*bench.Benchmark, base core.Options, sw Sweep) []Request {
	opts := sw.Expand(base)
	out := make([]Request, 0, len(benches)*len(opts))
	for _, b := range benches {
		for _, o := range opts {
			out = append(out, Request{Bench: b, Opts: o})
		}
	}
	return out
}

// ISPD09Requests builds one request per ISPD'09 suite benchmark with the
// given options — the issue's "whole suite" batch in one call.
func ISPD09Requests(o core.Options) []Request {
	suite := bench.ISPD09Suite()
	out := make([]Request, len(suite))
	for i, b := range suite {
		out[i] = Request{Bench: b, Opts: o}
	}
	return out
}
