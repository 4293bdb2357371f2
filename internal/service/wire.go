// Wire types: the JSON shapes shared by the contangod HTTP API and the
// contango CLI's -json output, so the two surfaces never drift apart.
package service

import (
	"fmt"
	"strings"
	"time"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/eco"
	"contango/internal/eval"
	"contango/internal/obs"
)

// MetricsWire is eval.Metrics with explicit units in the field names.
// The per-corner breakdown and the variation statistics (CLR spread,
// worst-corner attribution, Monte Carlo yield/quantiles) ride along for
// multi-corner runs.
type MetricsWire struct {
	SkewPs         float64 `json:"skew_ps"`
	CLRPs          float64 `json:"clr_ps"`
	MaxLatencyPs   float64 `json:"max_latency_ps"`
	MaxSlewPs      float64 `json:"max_slew_ps"`
	SlewViolations int     `json:"slew_violations"`
	TotalCapFF     float64 `json:"total_cap_ff"`
	CapPct         float64 `json:"cap_pct"`

	CLRSpreadPs float64          `json:"clr_spread_ps,omitempty"`
	WorstCorner string           `json:"worst_corner,omitempty"`
	PerCorner   []CornerStatWire `json:"per_corner,omitempty"`
	// MCSamples and Yield appear only for Monte Carlo runs. Yield is a
	// pointer so a catastrophic 0% yield still serializes ("yield": 0)
	// instead of vanishing under omitempty and reading as "no yield
	// analysis ran".
	MCSamples int      `json:"mc_samples,omitempty"`
	Yield     *float64 `json:"yield,omitempty"`
	LatP50Ps  float64  `json:"lat_p50_ps,omitempty"`
	LatP95Ps  float64  `json:"lat_p95_ps,omitempty"`
}

// CornerStatWire is one corner's row of the per-corner breakdown.
type CornerStatWire struct {
	Name           string  `json:"name"`
	Vdd            float64 `json:"vdd"`
	MinLatPs       float64 `json:"min_lat_ps"`
	MaxLatPs       float64 `json:"max_lat_ps"`
	SkewPs         float64 `json:"skew_ps"`
	MaxSlewPs      float64 `json:"max_slew_ps"`
	SlewViolations int     `json:"slew_violations,omitempty"`
	Weight         float64 `json:"weight,omitempty"`
}

// MetricsToWire converts flow metrics to their wire shape.
func MetricsToWire(m eval.Metrics) MetricsWire {
	w := MetricsWire{
		SkewPs:         m.Skew,
		CLRPs:          m.CLR,
		MaxLatencyPs:   m.MaxLatency,
		MaxSlewPs:      m.MaxSlew,
		SlewViolations: m.SlewViol,
		TotalCapFF:     m.TotalCap,
		CapPct:         m.CapPct,
		CLRSpreadPs:    m.CLRSpread,
		WorstCorner:    m.WorstCorner,
		MCSamples:      m.MCSamples,
		LatP50Ps:       m.LatP50,
		LatP95Ps:       m.LatP95,
	}
	if m.MCSamples > 0 {
		y := m.Yield
		w.Yield = &y
	}
	for _, c := range m.PerCorner {
		w.PerCorner = append(w.PerCorner, CornerStatWire{
			Name: c.Name, Vdd: c.Vdd,
			MinLatPs: c.MinLat, MaxLatPs: c.MaxLat, SkewPs: c.Skew,
			MaxSlewPs: c.MaxSlew, SlewViolations: c.SlewViol, Weight: c.Weight,
		})
	}
	return w
}

// StageWire is one optimization-cascade record (a Table III row).
type StageWire struct {
	Name    string      `json:"name"`
	Metrics MetricsWire `json:"metrics"`
	Runs    int         `json:"runs"` // cumulative simulator invocations
}

// ResultWire is the JSON shape of a finished synthesis run.
type ResultWire struct {
	Benchmark      string      `json:"benchmark"`
	Sinks          int         `json:"sinks"`
	Buffers        int         `json:"buffers"`
	Composite      string      `json:"composite"`
	InvertedSinks  int         `json:"inverted_sinks"`
	AddedInverters int         `json:"added_inverters"`
	Legalization   string      `json:"legalization"`
	Stages         []StageWire `json:"stages"`
	Final          MetricsWire `json:"final"`
	Runs           int         `json:"runs"`
	StageSims      int         `json:"stage_sims,omitempty"`
	StageReuses    int         `json:"stage_reuses,omitempty"`
	ElapsedMs      float64     `json:"elapsed_ms"`
}

// ResultToWire converts a synthesis result to its wire shape.
func ResultToWire(r *core.Result) *ResultWire {
	if r == nil {
		return nil
	}
	w := &ResultWire{
		Benchmark:      r.Benchmark.Name,
		Sinks:          len(r.Benchmark.Sinks),
		Buffers:        r.Buffers,
		Composite:      r.Composite.String(),
		InvertedSinks:  r.InvertedSinks,
		AddedInverters: r.AddedInverters,
		Legalization:   r.Legalization.String(),
		Final:          MetricsToWire(r.Final),
		Runs:           r.Runs,
		StageSims:      r.StageSims,
		StageReuses:    r.StageReuses,
		ElapsedMs:      float64(r.Elapsed) / float64(time.Millisecond),
	}
	for _, s := range r.Stages {
		w.Stages = append(w.Stages, StageWire{Name: s.Name, Metrics: MetricsToWire(s.Metrics), Runs: s.Runs})
	}
	return w
}

// JobWire is the JSON shape of a job's status.
type JobWire struct {
	ID         string      `json:"id"`
	Key        string      `json:"key"`
	State      State       `json:"state"`
	Benchmark  string      `json:"benchmark"`
	Sinks      int         `json:"sinks"`
	CacheHit   bool        `json:"cache_hit"`
	CacheTier  string      `json:"cache_tier,omitempty"` // "memory" or "disk" on cache hits
	Submitted  time.Time   `json:"submitted"`
	Started    *time.Time  `json:"started,omitempty"`
	Finished   *time.Time  `json:"finished,omitempty"`
	Error      string      `json:"error,omitempty"`
	Result     *ResultWire `json:"result,omitempty"`
	LogLines   int         `json:"log_lines"`
	LogDropped int         `json:"log_dropped,omitempty"`
	// EstimatedMs is the cost model's predicted runtime at submission
	// (absent for cache-hit jobs). Deadline and DeadlineMissed surface the
	// job's soft deadline: a miss is recorded, the job is never killed.
	EstimatedMs    float64    `json:"estimated_ms,omitempty"`
	Deadline       *time.Time `json:"deadline,omitempty"`
	DeadlineMissed bool       `json:"deadline_missed,omitempty"`
	// TraceSummary lists the finished job's longest trace spans (queue wait,
	// flow passes, evaluator arming, persistence). The full span tree is the
	// "trace" artifact in Chrome trace-event format.
	TraceSummary []obs.SpanInfo `json:"trace_summary,omitempty"`
}

// Wire snapshots the job's status for the API. Results are included only
// for finished jobs.
func (j *Job) Wire() *JobWire {
	j.mu.Lock()
	defer j.mu.Unlock()
	w := &JobWire{
		ID:         j.id,
		Key:        j.key,
		State:      j.state,
		Benchmark:  j.benchmark.Name,
		Sinks:      len(j.benchmark.Sinks),
		CacheHit:   j.cacheHit,
		CacheTier:  string(j.cacheTier),
		Submitted:  j.submitted,
		Result:     ResultToWire(j.result),
		LogLines:   len(j.logs),
		LogDropped: j.dropped,
	}
	if !j.started.IsZero() {
		t := j.started
		w.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		w.Finished = &t
	}
	if j.err != nil {
		w.Error = j.err.Error()
	}
	if j.estimate > 0 {
		w.EstimatedMs = float64(j.estimate) / float64(time.Millisecond)
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		w.Deadline = &t
		w.DeadlineMissed = j.deadlineMissed
	}
	w.TraceSummary = j.trace.Top(5)
	return w
}

// OptionsWire is the JSON-submittable subset of core.Options (hooks,
// custom engines and custom technology models are library-only).
type OptionsWire struct {
	// Plan selects the synthesis pipeline: a built-in plan name ("paper",
	// "fast", "wire-only", "tune-only", "no-cycles", "eco") or a plan-spec
	// string such as "tbsz:2,cycle(twsz,twsn)x2". The plan alone sets
	// which passes run, their round budgets and the convergence cycles.
	// Different plans content-address differently, so they never share a
	// result-cache slot.
	Plan string `json:"plan,omitempty"`
	// Corners selects the PVT corner set: "ispd09" (default), "pvt5", or
	// "mc:<n>:<seed>[:vsigma[:rsigma[:csigma]]]". Different sets evaluate
	// different scenarios and content-address differently, so they never
	// share a result-cache slot; the default set keys exactly as before
	// corner sets existed.
	Corners        string  `json:"corners,omitempty"`
	FastSim        bool    `json:"fast_sim,omitempty"`
	Gamma          float64 `json:"gamma,omitempty"`
	LargeInverters bool    `json:"large_inverters,omitempty"`
	// Parallelism is the per-job stage-simulation worker budget (0 = the
	// service default, 1 = serial; negative is rejected). It affects wall-clock time only — the
	// incremental evaluator produces identical results at any setting —
	// so it does not participate in result-cache keys.
	Parallelism int `json:"parallelism,omitempty"`
	// DeadlineMS is a soft completion deadline in milliseconds from
	// submission (0 = none). It is a scheduling hint, not an option: the
	// pack scheduler prioritizes jobs whose deadline is in jeopardy and a
	// miss is recorded, never enforced by killing the job. It is excluded
	// from the result-cache key — deadlined and undeadlined submissions of
	// the same run coalesce and share one cached result.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ECOBase and ECODelta identify an ECO re-synthesis run: the content
	// key of the finished base result and the delta in eco wire form.
	// They exist so durable ECO job specs round-trip the content key (the
	// key needs only the base key and the delta fingerprint, not the base
	// tree); submissions go through Service.SubmitECO or POST /api/v1/eco,
	// which load the base tree from the store before queueing.
	ECOBase  string `json:"eco_base,omitempty"`
	ECODelta string `json:"eco_delta,omitempty"`
}

// Deadline returns the wire deadline as a duration (0 = none).
func (o OptionsWire) Deadline() time.Duration {
	return time.Duration(o.DeadlineMS) * time.Millisecond
}

// Options converts the wire form to flow options.
func (o OptionsWire) Options() core.Options {
	out := core.Options{
		Plan:           o.Plan,
		Corners:        o.Corners,
		FastSim:        o.FastSim,
		Gamma:          o.Gamma,
		LargeInverters: o.LargeInverters,
		Parallelism:    o.Parallelism,
	}
	if o.ECOBase != "" && o.ECODelta != "" {
		// A delta that fails to parse leaves ECO nil; SubmitECO and the
		// recovery path parse it themselves and surface the error. The
		// spec's base tree is hydrated from the store before the job runs.
		if d, err := eco.ParseDelta(strings.NewReader(o.ECODelta)); err == nil {
			out.ECO = &eco.Spec{BaseKey: o.ECOBase, Delta: d}
		}
	}
	return out
}

// SubmitRequest is the body of POST /api/v1/jobs: a named benchmark or an
// inline benchmark in the library's text format.
type SubmitRequest struct {
	Bench     string      `json:"bench,omitempty"`
	BenchText string      `json:"bench_text,omitempty"`
	Options   OptionsWire `json:"options"`
}

// ECORequest is the body of POST /api/v1/eco: incremental re-synthesis of
// a finished base result under a delta. Base is the base run's content
// key (JobWire.Key); Delta is the change order in eco wire form ("move
// <name> <x> <y>" / "add <name> <x> <y> <cap>" / "remove <name>" /
// "caplimit <fF>"). Options shape the ECO run itself; an empty plan means
// the built-in "eco" plan (delta replay + short tuning cascade).
type ECORequest struct {
	Base    string      `json:"base"`
	Delta   string      `json:"delta"`
	Options OptionsWire `json:"options"`
}

// BatchRequest is the body of POST /api/v1/batches: a set of named
// benchmarks (or the whole ISPD'09 suite, or inline benchmark files)
// crossed with an optional parameter sweep.
type BatchRequest struct {
	Benches    []string    `json:"benches,omitempty"`
	Suite      bool        `json:"suite,omitempty"` // all ISPD'09 benchmarks
	BenchTexts []string    `json:"bench_texts,omitempty"`
	Options    OptionsWire `json:"options"`
	Sweep      *Sweep      `json:"sweep,omitempty"`
}

// Resolve expands the batch request into submission requests.
func (r BatchRequest) Resolve() ([]Request, error) {
	var benches []*bench.Benchmark
	if r.Suite {
		benches = bench.ISPD09Suite()
	}
	for _, name := range r.Benches {
		b, err := bench.ISPD09(name)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	for i, text := range r.BenchTexts {
		b, err := bench.Read(strings.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("bench_texts[%d]: %w", i, err)
		}
		benches = append(benches, b)
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("service: batch names no benchmarks")
	}
	sw := Sweep{}
	if r.Sweep != nil {
		sw = *r.Sweep
	}
	reqs := SweepRequests(benches, r.Options.Options(), sw)
	if d := r.Options.Deadline(); d > 0 {
		for i := range reqs {
			reqs[i].Deadline = d
		}
	}
	return reqs, nil
}
