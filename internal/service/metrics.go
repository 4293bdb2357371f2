// Observability wiring for the Service: every counter the service exposes
// lives in an obs.Registry, which is the single source of truth — the
// /api/v1/stats snapshot (Stats) and the Prometheus exposition at /metrics
// are two renderings of the same registers and cannot drift apart.
package service

import (
	"strings"

	"contango/internal/core"
	"contango/internal/corners"
	"contango/internal/obs"
	"contango/internal/store"
)

// passDurationBuckets spans 500µs to ~65s exponentially — flow passes on
// tiny benchmarks land in the low milliseconds, full ISPD'09 cascades in
// the tens of seconds.
var passDurationBuckets = obs.ExpBuckets(0.0005, 2, 18)

// serviceMetrics holds the typed handles the service's hot paths update.
type serviceMetrics struct {
	reg *obs.Registry

	submitted *obs.Counter
	coalesced *obs.Counter
	recovered *obs.Counter

	completed *obs.CounterVec // plan, corners
	failed    *obs.CounterVec // plan, corners
	canceled  *obs.CounterVec // plan, corners

	cacheHits      *obs.CounterVec // tier: memory | disk
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	simRuns     *obs.Counter
	stageSims   *obs.Counter
	stageReuses *obs.Counter
	flowStages  *obs.Counter
	flowCycles  *obs.Counter

	passes  *obs.CounterVec   // pass
	passDur *obs.HistogramVec // pass
	evalDur *obs.Histogram

	ecoJobs    *obs.CounterVec // outcome: cache_hit | done | failed | canceled
	ecoSpeedup *obs.Histogram  // base wall time over eco wall time

	// Packing-scheduler families (registered under both disciplines so
	// the exposition is stable; only the pack scheduler moves most of them).
	estRatio  *obs.Histogram    // actual/predicted runtime
	deadlines *obs.CounterVec   // outcome: hit | miss
	queueWait *obs.HistogramVec // plan
	splits    *obs.Counter
	yields    *obs.Counter
	rejected  *obs.Counter

	httpPanics *obs.Counter

	storeMetrics *store.Metrics
}

// newServiceMetrics registers the service's metric families on reg and
// installs the live gauges that read service state at scrape time.
func newServiceMetrics(reg *obs.Registry, s *Service) *serviceMetrics {
	m := &serviceMetrics{
		reg: reg,

		submitted: reg.Counter("contango_jobs_submitted_total",
			"Accepted job submissions (including coalesced and cache-served ones)."),
		coalesced: reg.Counter("contango_jobs_coalesced_total",
			"Submissions joined to an identical queued or running job."),
		recovered: reg.Counter("contango_jobs_recovered_total",
			"Unfinished jobs re-queued from the journal at startup."),

		completed: reg.CounterVec("contango_jobs_completed_total",
			"Jobs finished successfully (cache hits included).", "plan", "corners"),
		failed: reg.CounterVec("contango_jobs_failed_total",
			"Jobs that ended with a synthesis error.", "plan", "corners"),
		canceled: reg.CounterVec("contango_jobs_canceled_total",
			"Jobs canceled before completing.", "plan", "corners"),

		cacheHits: reg.CounterVec("contango_cache_hits_total",
			"Submissions served from the result cache, by tier.", "tier"),
		cacheMisses: reg.Counter("contango_cache_misses_total",
			"Submissions served by neither cache tier."),
		cacheEvictions: reg.Counter("contango_cache_evictions_total",
			"Memory-tier demotions (entries persist on disk when a data dir is set)."),

		simRuns: reg.Counter("contango_sim_runs_total",
			"Accurate transient simulator invocations (one per corner per evaluation) across executed jobs."),
		stageSims: reg.Counter("contango_stage_sims_total",
			"Transient stage simulations integrated by the incremental evaluator."),
		stageReuses: reg.Counter("contango_stage_reuses_total",
			"Stage transients served from the incremental evaluator's dirty-cone cache."),
		flowStages: reg.Counter("contango_flow_stages_total",
			"Stage records (Table III rows) produced by executed jobs."),
		flowCycles: reg.Counter("contango_flow_cycles_total",
			"Convergence cycles executed across jobs."),

		passes: reg.CounterVec("contango_passes_total",
			"Executed pipeline passes, by pass name.", "pass"),
		passDur: reg.HistogramVec("contango_pass_duration_seconds",
			"Wall-clock duration of executed pipeline passes.", passDurationBuckets, "pass"),
		evalDur: reg.Histogram("contango_corner_eval_seconds",
			"Wall-clock duration of arming the accurate evaluator (the first full multi-corner evaluation).",
			passDurationBuckets),

		ecoJobs: reg.CounterVec("contango_eco_jobs_total",
			"ECO re-synthesis submissions reaching a terminal state, by outcome.", "outcome"),
		ecoSpeedup: reg.Histogram("contango_eco_speedup",
			"Base-run wall time over ECO wall time for successful ECO jobs (>1 = the incremental path was faster).",
			obs.ExpBuckets(0.5, 2, 12)),

		estRatio: reg.Histogram("contango_sched_estimate_ratio",
			"Actual over predicted runtime of executed jobs (1.0 = the cost model was exact).",
			obs.ExpBuckets(1.0/32, 2, 11)),
		deadlines: reg.CounterVec("contango_sched_deadline_total",
			"Successfully finished jobs that carried a soft deadline, by outcome.", "outcome"),
		queueWait: reg.HistogramVec("contango_sched_queue_wait_seconds",
			"Time jobs waited for a worker slot under the pack scheduler, by plan.",
			passDurationBuckets, "plan"),
		splits: reg.Counter("contango_sched_splits_total",
			"Multi-corner evaluations split into schedulable chunks."),
		yields: reg.Counter("contango_sched_yields_total",
			"Worker-slot yields at chunk boundaries (the slot went to a waiting job)."),
		rejected: reg.Counter("contango_sched_rejected_total",
			"Submissions refused by admission control (queue saturated or estimated wait over the bound)."),
		httpPanics: reg.Counter("contango_http_panics_total",
			"HTTP handler panics recovered and answered with a 500."),
	}
	// Pre-create the tier children so both series exist from the first
	// scrape and Stats can read them without conditioning.
	m.cacheHits.With(string(tierMemory))
	m.cacheHits.With(string(tierDisk))
	m.deadlines.With("hit")
	m.deadlines.With("miss")

	m.storeMetrics = &store.Metrics{
		Reads: reg.Counter("contango_store_reads_total",
			"Successful object reads from the artifact store."),
		ReadBytes: reg.Counter("contango_store_read_bytes_total",
			"Payload bytes read from the artifact store."),
		Writes: reg.Counter("contango_store_writes_total",
			"Objects written to the artifact store."),
		WriteBytes: reg.Counter("contango_store_write_bytes_total",
			"Payload bytes written to the artifact store."),
		Quarantines: reg.Counter("contango_store_quarantines_total",
			"Blobs quarantined after failing their integrity check."),
		JournalAppends: reg.Counter("contango_journal_appends_total",
			"Job-lifecycle records appended to the journal."),
		JournalCompacted: reg.Counter("contango_journal_compacted_records_total",
			"Journal records dropped by open-time compaction."),
	}

	reg.GaugeFunc("contango_workers", "Size of the synthesis worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("contango_queue_depth", "Jobs waiting for a free worker.",
		func() float64 { return float64(s.pool.Waiting()) })
	reg.GaugeFunc("contango_sched_backlog_seconds",
		"Estimated time for the pack scheduler's queue to drain (0 with a free slot).",
		func() float64 { return s.pool.Backlog().Seconds() })
	reg.GaugeFunc("contango_jobs_inflight", "Jobs currently queued or running (in-flight dedup map size).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.inflight))
		})
	reg.GaugeFunc("contango_jobs", "Jobs known to this process (all states).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	reg.GaugeFunc("contango_cache_entries", "Results held by the memory cache tier.",
		func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.Len())
		})
	obs.RegisterRuntimeMetrics(reg)
	return m
}

// planLabel maps an options plan spec to its metrics label.
func planLabel(plan string) string {
	if plan == "" {
		return core.DefaultPlanName
	}
	return plan
}

// cornersLabel maps an options corner-set spec to its metrics label.
func cornersLabel(spec string) string {
	if spec == "" {
		return corners.DefaultName
	}
	return corners.Canon(spec)
}

// observeResult folds a finished run's construction counters into the
// registry.
func (m *serviceMetrics) observeResult(res *core.Result) {
	m.simRuns.Add(int64(res.Runs))
	m.stageSims.Add(int64(res.StageSims))
	m.stageReuses.Add(int64(res.StageReuses))
	m.flowStages.Add(int64(len(res.Stages)))
	cycles := 0
	for _, st := range res.Stages {
		if strings.HasPrefix(st.Name, "CYCLE") {
			cycles++
		}
	}
	m.flowCycles.Add(int64(cycles))
}
