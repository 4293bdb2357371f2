package main

// metricDef is one metric of BENCHMARK.json: its name, unit, direction and,
// for end-to-end metrics, the share of the baseline median by which it may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of contango sees, reported by every
// workload of an untraced run. Failures are not a metric here but the
// result line's attempted and failed counts: an error rate reads 0 on a
// healthy run, and an end-to-end metric must never read 0.
var endToEnd = []metricDef{
	// Product work done once before the first timed operation, from the
	// workload process's exec to the point it is ready, median over several
	// set-ups.
	{"setup_s", "s", "lower", 0.25},
	// Median wall time of one operation of the workload. On the shared
	// 2-vCPU VM the benchmark was built on, the same work ran up to 45%
	// slower for minutes at a time, which put the quartile spread of ten
	// runs at 4-23%: the bound is the widest allowed.
	{"run_s", "s", "lower", 0.25},
	// High-water resident set of the workload process over the timed part.
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// perLayer are the traced run's metrics, named <layer>.<quantity> with the
// layer being the contango module the time or count belongs to. Library
// workloads report them per operation; service reports them per executed
// job. Metrics a workload never exercises read 0.
var perLayer = []metricDef{
	{"bench.read_s", "s", "lower", 0},
	{"core.decode_s", "s", "lower", 0},
	{"core.encode_s", "s", "lower", 0},
	{"core.envelope_mb", "MiB", "lower", 0},
	{"core.self_s", "s", "lower", 0},
	{"dme.zst_s", "s", "lower", 0},
	{"dme.zst_alloc_mb", "MiB", "lower", 0},
	{"route.legalize_s", "s", "lower", 0},
	{"buffering.buffer_s", "s", "lower", 0},
	{"buffering.buffer_alloc_mb", "MiB", "lower", 0},
	{"buffering.polarity_s", "s", "lower", 0},
	{"eco.delta_s", "s", "lower", 0},
	{"eco.restore_s", "s", "lower", 0},
	{"eco.apply_s", "s", "lower", 0},
	{"flow.arm_s", "s", "lower", 0},
	{"flow.arm_alloc_mb", "MiB", "lower", 0},
	{"opt.tbsz_s", "s", "lower", 0},
	{"opt.twsz_s", "s", "lower", 0},
	{"opt.twsn_s", "s", "lower", 0},
	{"opt.bwsn_s", "s", "lower", 0},
	{"opt.self_s", "s", "lower", 0},
	{"spice.cne_calls", "count", "lower", 0},
	{"spice.cne_s", "s", "lower", 0},
	{"spice.cne_p50_s", "s", "lower", 0},
	{"spice.runs", "count", "lower", 0},
	{"spice.stage_sims", "count", "lower", 0},
	{"spice.stage_reuses", "count", "higher", 0},
	{"spice.stage_reuse_ratio", "ratio", "higher", 0},
	{"go.alloc_mb", "MiB", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_s", "s", "lower", 0},
	{"eval.skew_ps", "ps", "lower", 0},
	{"eval.clr_ps", "ps", "lower", 0},
	{"eval.cap_pf", "pF", "lower", 0},
	{"service.jobs", "count", "higher", 0},
	{"service.job_p90_s", "s", "lower", 0},
	{"service.submit_p50_s", "s", "lower", 0},
	{"service.queue_wait_p50_s", "s", "lower", 0},
	{"service.queue_wait_p90_s", "s", "lower", 0},
	{"service.exec_p50_s", "s", "lower", 0},
	{"service.hit_p50_s", "s", "lower", 0},
	{"service.persist_s", "s", "lower", 0},
	{"service.utilization", "ratio", "lower", 0},
	{"service.cache_hit_ratio", "ratio", "higher", 0},
	{"service.coalesced", "count", "higher", 0},
	{"service.rejected", "count", "lower", 0},
	{"sched.splits", "count", "lower", 0},
	{"sched.yields", "count", "lower", 0},
	{"store.writes", "count", "lower", 0},
	{"store.write_mb", "MiB", "lower", 0},
	{"loadgen.late_max_s", "s", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.coverage_pct", "%", "higher", 0},
}
