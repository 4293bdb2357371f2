// Package service turns the single-run Contango synthesizer into a
// concurrent batch service: a job manager with a fixed worker pool runs
// core.Synthesize jobs in parallel, a two-tier content-addressed result
// cache (memory LRU in front of an optional on-disk store) dedupes
// repeated submissions (hash of benchmark bytes + canonicalized options),
// identical in-flight submissions coalesce onto one run, and every job
// streams its progress log to subscribers. With Config.DataDir set the
// service is durable: finished results, progress logs and rendered SVGs
// persist as content-addressed artifacts, an append-only journal tracks
// job lifecycles, and Open replays it so a restart re-queues unfinished
// jobs and serves finished ones as disk-backed cache hits. The HTTP front
// end in this package (Server) exposes the same operations as the
// contangod JSON API; contango.go re-exports the library surface.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"contango/internal/analysis"
	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/corners"
	"contango/internal/obs"
	"contango/internal/sched"
	"contango/internal/store"
)

// SchedulerPack names the service's scheduler in Stats and QueueWire: the
// cost-model-driven packing scheduler. Jobs are granted worker slots by
// estimated core-seconds (shortest first, with aging and soft-deadline
// urgency), large corner sweeps yield their slot at chunk boundaries, and
// admission is bounded by the estimated queue wait. Scheduling never
// changes results — only when they arrive.
const SchedulerPack = "pack"

// Config tunes a Service.
type Config struct {
	// Workers is the worker-pool size (default: min(GOMAXPROCS, 4)).
	Workers int
	// CacheEntries bounds the in-memory tier of the result cache (default
	// 256; negative disables caching entirely, including the disk tier).
	CacheEntries int
	// QueueDepth bounds the number of jobs waiting for a worker (default
	// 4096). Submissions beyond it fail fast with ErrQueueFull.
	QueueDepth int
	// JobParallelism is the per-job stage-simulation worker budget applied
	// to submissions that leave Options.Parallelism unset. The default
	// divides GOMAXPROCS evenly across the job workers (at least 1), so a
	// fully loaded pool neither oversubscribes the host nor leaves cores
	// idle when a single large job runs alone on a big machine.
	JobParallelism int
	// DefaultPlan is applied to submissions that leave Options.Plan unset
	// (empty keeps the library default, the "paper" plan). Unlike
	// JobParallelism it shapes results, so it is applied before the job's
	// content key is computed.
	DefaultPlan string
	// DefaultCorners is applied to submissions that leave Options.Corners
	// unset (empty keeps the library default, the technology's native
	// "ispd09" pair). Like DefaultPlan it shapes results and therefore
	// participates in the job's content key.
	DefaultCorners string
	// DataDir, when non-empty, roots the durable storage layer: a
	// content-addressed artifact store (finished results, job logs, SVGs,
	// job specs) plus the job journal. Empty keeps the service purely
	// in-memory — bit-for-bit today's behavior. Use Open (not New) to
	// surface store-initialization errors.
	DataDir string
	// NoFsync skips fsync on store and journal writes. Durability across
	// power loss is lost; crash-consistency of the on-disk layout is kept.
	// Meant for tests and throwaway runs.
	NoFsync bool
	// Logger, when non-nil, receives structured job-lifecycle records
	// (queued, running, cache hit, finished, failed, canceled) carrying
	// job-ID, benchmark, plan, corner-set and cache-tier attributes, plus
	// service lifecycle lines (cache hits, persistence, recovery) at debug
	// level. Per-job progress goes to the job's own log.
	Logger *slog.Logger
	// Registry, when non-nil, is the metrics registry the service registers
	// its families on (default: a fresh private registry). Every service
	// counter lives in it — Stats and the Prometheus exposition are two
	// renderings of the same registers.
	Registry *obs.Registry
	// MaxQueueWait, when positive, bounds admission by estimated backlog:
	// submissions arriving while every slot is busy and the queue is
	// estimated to take longer than this to drain are rejected with a
	// *sched.BacklogError carrying a Retry-After hint (HTTP 429). Zero
	// disables the bound.
	MaxQueueWait time.Duration
	// SplitCorners is the maximum corners a multi-corner evaluation runs
	// per worker-slot tenure: larger evaluations are split into chunks
	// with a cooperative slot yield between them, so a big Monte Carlo
	// sweep interleaves with interactive jobs instead of monopolizing a
	// worker. 0 means the default (16); negative disables
	// splitting. Splitting never changes results.
	SplitCorners int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 4 {
			c.Workers = 4
		}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.JobParallelism <= 0 {
		c.JobParallelism = runtime.GOMAXPROCS(0) / c.Workers
		if c.JobParallelism < 1 {
			c.JobParallelism = 1
		}
	}
	if c.SplitCorners == 0 {
		c.SplitCorners = 16
	}
}

// Errors returned by submission.
var (
	ErrClosed    = errors.New("service: closed")
	ErrQueueFull = errors.New("service: job queue full")
	ErrNoBench   = errors.New("service: nil or empty benchmark")
)

// Request is one unit of batch submission.
type Request struct {
	Bench *bench.Benchmark
	Opts  core.Options
	// Deadline is the per-request soft completion deadline (0 = none),
	// passed through to SubmitWith.
	Deadline time.Duration
}

// Stats is a snapshot of service counters.
type Stats struct {
	Workers        int    `json:"workers"`
	Scheduler      string `json:"scheduler"`
	QueueLen       int    `json:"queue_len"`
	Jobs           int    `json:"jobs"`
	Submitted      int    `json:"submitted"`
	Coalesced      int    `json:"coalesced"`       // submissions joined to an in-flight identical job
	CacheHits      int    `json:"cache_hits"`      // submissions served from the result cache (either tier)
	CacheMisses    int    `json:"cache_misses"`    // submissions served by neither cache tier
	CacheEvictions int    `json:"cache_evictions"` // memory-tier demotions (entries persist on disk when DataDir is set)
	DiskHits       int    `json:"disk_hits"`       // cache hits served by the disk tier (subset of cache_hits)
	RecoveredJobs  int    `json:"recovered_jobs"`  // unfinished jobs re-queued from the journal at startup
	CacheEntries   int    `json:"cache_entries"`
	Completed      int    `json:"completed"`
	Failed         int    `json:"failed"`
	Canceled       int    `json:"canceled"`
	SimRuns        int    `json:"sim_runs"` // accurate-simulator invocations across executed jobs

	Rejected       int     `json:"rejected"`        // submissions refused by admission control
	DeadlineHits   int     `json:"deadline_hits"`   // deadlined jobs that finished in time
	DeadlineMisses int     `json:"deadline_misses"` // deadlined jobs that finished late (never killed)
	BacklogSeconds float64 `json:"backlog_seconds"` // estimated queue drain time
}

// Service runs synthesis jobs on a worker pool with content-addressed
// result caching and in-flight deduplication. Create one with Open (or
// New for in-memory configurations) and release it with Close or, for a
// graceful stop that preserves in-flight work in the journal, Shutdown.
type Service struct {
	cfg     Config
	pool    *sched.Pool
	est     *sched.Estimator
	cache   *resultCache    // nil when caching is disabled
	st      *store.Store    // nil without DataDir
	jnl     *store.Journal  // nil without DataDir
	metrics *serviceMetrics // all service counters (single source of truth)
	wg      sync.WaitGroup  // one per job goroutine

	mu       sync.Mutex
	closed   bool
	draining bool // Shutdown in progress: cancellations journal as pending
	seq      int
	jobs     map[string]*Job // by ID
	order    []*Job          // submission order
	inflight map[string]*Job // by content key, queued or running
}

// Open starts a Service. With cfg.DataDir set it opens the durable store
// and journal, starts the worker pool, and then replays the journal:
// submitted-but-unfinished jobs are re-queued (Stats.RecoveredJobs) while
// finished ones wait on disk as warm cache hits. Initialization errors
// (unwritable data dir, …) are returned rather than degrading silently to
// an in-memory service.
func Open(cfg Config) (*Service, error) {
	cfg.fill()
	s := &Service{
		cfg: cfg,
		pool: sched.NewPool(sched.PoolConfig{
			Slots:      cfg.Workers,
			MaxWaiting: cfg.QueueDepth,
			MaxWait:    cfg.MaxQueueWait,
		}),
		est:      sched.NewEstimator(sched.DefaultPriors()),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newServiceMetrics(reg, s)
	var recovered []store.Record
	if cfg.DataDir != "" {
		st, err := store.Open(cfg.DataDir, !cfg.NoFsync)
		if err != nil {
			return nil, err
		}
		jnl, recs, err := store.OpenJournal(filepath.Join(cfg.DataDir, "journal.log"), !cfg.NoFsync)
		if err != nil {
			return nil, err
		}
		st.SetMetrics(s.metrics.storeMetrics)
		jnl.SetMetrics(s.metrics.storeMetrics)
		s.st, s.jnl = st, jnl
		recovered = recs
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, s.st, s.metrics.cacheMisses, s.metrics.cacheEvictions)
	}
	s.recoverJournal(recovered)
	return s, nil
}

// New starts a Service with cfg's worker pool. It is Open for in-memory
// configurations; with cfg.DataDir set it panics if the durable layer
// cannot be initialized — callers enabling persistence should use Open
// and handle the error.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("service.New: %v (use Open to handle store errors)", err))
	}
	return s
}

// logf emits a service lifecycle line through the configured Logger at
// debug level.
func (s *Service) logf(format string, args ...interface{}) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Debug(fmt.Sprintf(format, args...))
	}
}

// logJob emits one structured job-lifecycle record through the Logger
// with the job's identifying attributes attached.
func (s *Service) logJob(j *Job, msg string, attrs ...slog.Attr) {
	if s.cfg.Logger == nil {
		return
	}
	base := []slog.Attr{
		slog.String("job", j.id),
		slog.String("bench", j.benchmark.Name),
		slog.String("plan", j.planLabel),
		slog.String("corners", j.cornersLabel),
	}
	if tier := j.CacheTier(); tier != "" {
		base = append(base, slog.String("cache_tier", tier))
	}
	s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, msg, append(base, attrs...)...)
}

// MetricsRegistry returns the registry holding the service's metric
// families — the backing state of both Stats and the /metrics exposition.
func (s *Service) MetricsRegistry() *obs.Registry { return s.metrics.reg }

// SubmitOpts carries per-submission scheduling hints. They shape when a
// job runs, never what it computes: nothing here participates in the
// job's content key, so a deadlined submission coalesces with (and is
// served by the cache of) the identical un-deadlined one.
type SubmitOpts struct {
	// Deadline, when positive, sets a soft completion deadline this far
	// from submission. The pack scheduler prioritizes jobs whose deadline
	// is in jeopardy; a missed deadline is recorded (job status, metrics,
	// Stats), never enforced by killing the job. Identical coalesced
	// submissions tighten the shared job to the earliest deadline.
	Deadline time.Duration
}

// Submit enqueues one synthesis run and returns its Job immediately.
// Submissions dedupe by content: if the identical run (same benchmark
// bytes, same canonicalized options) is already queued or running, the
// existing Job is returned; if its result is cached — in memory or, on a
// durable service, persisted on disk by an earlier process — a Job
// completed as a cache hit is returned without touching the worker pool.
// Opts.Engine should normally be left nil so every executed job gets its
// own simulator instance; a caller-shared Engine is used as-is and is not
// safe across concurrent jobs.
func (s *Service) Submit(b *bench.Benchmark, o core.Options) (*Job, error) {
	return s.SubmitWith(b, o, SubmitOpts{})
}

// SubmitWith is Submit with scheduling hints (soft deadline).
func (s *Service) SubmitWith(b *bench.Benchmark, o core.Options, so SubmitOpts) (*Job, error) {
	if b == nil || len(b.Sinks) == 0 {
		return nil, ErrNoBench
	}
	if o.Plan == "" {
		o.Plan = s.cfg.DefaultPlan
	}
	if o.Corners == "" {
		o.Corners = s.cfg.DefaultCorners
	}
	// Reject unparsable plan and corner-set specs and unknown skip-stage
	// names up front: a bad spec would only fail after queueing, and its
	// raw string would pollute the key space.
	if _, err := core.ResolvePlan(o.Plan); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if err := core.CheckSkipStages(o.SkipStages); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if err := corners.Validate(o.Corners); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	key := JobKey(b, o)
	lookupStart := time.Now()
	var deadline time.Time
	if so.Deadline > 0 {
		deadline = lookupStart.Add(so.Deadline)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}

	// In-flight coalescing: an identical queued/running job serves this
	// submission too. Counters are monotonic registers, so submissions count
	// only at the points where they are actually accepted — rejected ones
	// (closed service, full queue) never touch them.
	if live, ok := s.inflight[key]; ok {
		s.metrics.submitted.Inc()
		s.metrics.coalesced.Inc()
		s.mu.Unlock()
		live.tightenDeadline(deadline)
		return live, nil
	}

	// Memory-tier cache check stays under the lock (one mutex hop) so it is
	// atomic with the in-flight map.
	if s.cache != nil {
		if res, ok := s.cache.getMemory(key); ok {
			j := s.finishCacheHitLocked(b, o, key, res, tierMemory, lookupStart, deadline)
			s.mu.Unlock()
			s.logCacheHit(j)
			return j, nil
		}
	}
	s.mu.Unlock()

	// Disk-tier lookup and spec persistence do file IO (read + decode a
	// whole tree, fsynced writes): keep them off s.mu so one slow disk op
	// never stalls concurrent submissions, stats or cancellations. Racing
	// identical submissions are harmless — both may probe the disk and
	// persist the same idempotent spec, and the re-taken lock below
	// re-checks the in-flight map before queueing.
	var diskRes *core.Result
	if s.cache != nil {
		diskRes, _ = s.cache.getDisk(key)
	}
	durable := false
	if diskRes == nil {
		durable = s.persistSubmit(b, o, key, int64(so.Deadline/time.Millisecond))
		if durable {
			// "submitted" is journaled before the job can reach any worker
			// or canceler, so no terminal record for this submission can
			// ever precede it — last-record-wins compaction stays sound.
			// The rejection paths below compensate with a terminal record
			// if the job never actually queues.
			s.journal("submitted", key)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if durable {
			s.journal("canceled", key)
		}
		return nil, ErrClosed
	}
	if live, ok := s.inflight[key]; ok {
		// Same key: the live job's own lifecycle records resolve the
		// "submitted" we may just have appended.
		s.metrics.submitted.Inc()
		s.metrics.coalesced.Inc()
		s.mu.Unlock()
		live.tightenDeadline(deadline)
		return live, nil
	}
	// On a disk miss, re-check the memory tier: an in-flight identical job
	// seen by the first lock may have finished (cache.Add, then in-flight
	// removal) while we probed the disk — without this, that window would
	// queue a duplicate synthesis of a result that is already cached. (On
	// a disk hit the re-check must not run: getDisk already promoted the
	// result into memory, and the submission was genuinely disk-served.)
	if diskRes == nil && s.cache != nil {
		if res, ok := s.cache.getMemory(key); ok {
			j := s.finishCacheHitLocked(b, o, key, res, tierMemory, lookupStart, deadline)
			s.mu.Unlock()
			s.logCacheHit(j)
			if durable {
				// The racing job's write-through persisted the result; mark
				// our just-journaled "submitted" resolved.
				s.journal("finished", key)
			}
			return j, nil
		}
	}
	if diskRes != nil {
		// A result some earlier process computed and persisted.
		j := s.finishCacheHitLocked(b, o, key, diskRes, tierDisk, lookupStart, deadline)
		s.mu.Unlock()
		s.logCacheHit(j)
		// Converge the journal: if a crash lost the original "finished"
		// record (or recovery just resubmitted this key), the disk hit
		// proves the work is done — journal it so the next open does not
		// re-recover a completed job.
		s.journal("finished", key)
		return j, nil
	}

	feats := sched.Features{
		Plan:    planLabel(o.Plan),
		Corners: corners.Cardinality(cornersLabel(o.Corners)),
		Sinks:   b.Stats().Sinks,
	}
	j := &Job{
		id:           fmt.Sprintf("job-%04d", s.seq+1),
		key:          key,
		benchmark:    b,
		opts:         o,
		planLabel:    planLabel(o.Plan),
		cornersLabel: cornersLabel(o.Corners),
		submitted:    lookupStart,
		enqueued:     time.Now(),
		durable:      durable,
		features:     feats,
		estimate:     s.est.Estimate(feats),
		deadline:     deadline,
		svc:          s,
		state:        Queued,
		done:         make(chan struct{}),
	}
	s.seq++
	// Admission bounds (waiting count, estimated backlog) are checked
	// atomically here; the blocking wait for a slot happens in the job's
	// own goroutine (runPacked).
	tk, err := s.pool.Enqueue(sched.Claim{Label: j.id, Estimate: j.estimate, Deadline: deadline})
	if err != nil {
		s.mu.Unlock()
		s.metrics.rejected.Inc()
		if durable {
			s.journal("canceled", key)
		}
		if errors.Is(err, sched.ErrSaturated) {
			return nil, ErrQueueFull
		}
		return nil, err // *sched.BacklogError with a Retry-After hint
	}
	j.ticket = tk
	s.metrics.submitted.Inc()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.inflight[key] = j
	s.wg.Add(1)
	s.mu.Unlock()
	go s.runPacked(j)
	s.logf("job %s: queued %s (%d sinks)", j.id, b.Name, len(b.Sinks))
	s.logJob(j, "job queued", slog.Int("sinks", len(b.Sinks)))
	return j, nil
}

// runPacked is the per-job driver: it waits for the pool
// to grant the job a slot (abandoning the wait if the job is canceled
// first — its done channel closes), runs the job, and releases the slot.
func (s *Service) runPacked(j *Job) {
	defer s.wg.Done()
	tk := j.ticket
	if err := s.pool.Await(tk, j.done); err != nil {
		return // canceled while waiting; Cancel already finished the job
	}
	defer s.pool.Release(tk)
	s.metrics.queueWait.With(j.planLabel).Observe(tk.QueueWait().Seconds())
	s.run(j) // no-ops if the job was canceled between grant and here
}

// finishCacheHitLocked registers a submission served from the result cache
// as an instantly completed job. Called with s.mu held; the caller logs
// (logCacheHit) after releasing the lock.
func (s *Service) finishCacheHitLocked(b *bench.Benchmark, o core.Options, key string, res *core.Result, tier cacheTier, lookupStart time.Time, deadline time.Time) *Job {
	j := &Job{
		id:           fmt.Sprintf("job-%04d", s.seq+1),
		key:          key,
		benchmark:    b,
		opts:         o,
		planLabel:    planLabel(o.Plan),
		cornersLabel: cornersLabel(o.Corners),
		submitted:    lookupStart,
		deadline:     deadline,
		svc:          s,
		state:        Queued,
		done:         make(chan struct{}),
	}
	s.seq++
	s.metrics.submitted.Inc()
	s.metrics.cacheHits.With(string(tier)).Inc()
	s.metrics.completed.With(j.planLabel, j.cornersLabel).Inc()
	if o.ECO != nil {
		s.metrics.ecoJobs.With("cache_hit").Inc()
	}
	j.cacheHit = true
	j.cacheTier = tier
	j.started = j.submitted
	// Cache-hit jobs get a minimal in-memory trace (the whole lifetime was
	// the cache lookup). It is never persisted: the executed job's artifact
	// under the same key already holds the real flow trace.
	tr := obs.NewTrace(j.id, j.submitted)
	root := tr.Root()
	root.SetArg("benchmark", b.Name)
	root.SetArg("plan", j.planLabel)
	root.SetArg("corners", j.cornersLabel)
	root.SetArg("cache_tier", string(tier))
	root.ChildSpan("cache_lookup", j.submitted, time.Now())
	tr.Finish()
	j.trace = tr
	j.mu.Lock()
	j.finishLocked(Done, res, nil)
	j.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	return j
}

func (s *Service) logCacheHit(j *Job) {
	j.appendLog(fmt.Sprintf("%s: served from result cache (%s)", j.benchmark.Name, j.cacheTier))
	s.logf("job %s: %s cache hit for %s", j.id, j.cacheTier, j.benchmark.Name)
	s.logJob(j, "job served from cache")
}

// SubmitBatch submits every request, returning one Job per request in
// order. Requests that dedupe against the cache or an in-flight run still
// produce an entry (possibly the same *Job several times). On a submission
// error the jobs submitted so far are returned alongside it.
func (s *Service) SubmitBatch(reqs []Request) ([]*Job, error) {
	jobs := make([]*Job, 0, len(reqs))
	for i, r := range reqs {
		j, err := s.SubmitWith(r.Bench, r.Opts, SubmitOpts{Deadline: r.Deadline})
		if err != nil {
			return jobs, fmt.Errorf("batch request %d (%s): %w", i, benchName(r.Bench), err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func benchName(b *bench.Benchmark) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}

// WaitAll waits for every job (duplicates allowed) and returns their
// results in order. The first failure or cancellation aborts the wait and
// is returned; canceling ctx abandons the wait without canceling the jobs.
// Each returned Result is the waiter's own defensive copy.
func WaitAll(ctx context.Context, jobs []*Job) ([]*core.Result, error) {
	out := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.ID(), err)
		}
		out[i] = res
	}
	return out, nil
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// Stats returns a snapshot of the service counters. The counters are read
// from the metrics registry — the same registers the Prometheus exposition
// at /metrics renders — so the two surfaces cannot drift.
func (s *Service) Stats() Stats {
	m := s.metrics
	st := Stats{
		Submitted:      int(m.submitted.Value()),
		Coalesced:      int(m.coalesced.Value()),
		CacheHits:      int(m.cacheHits.Total()),
		CacheMisses:    int(m.cacheMisses.Value()),
		CacheEvictions: int(m.cacheEvictions.Value()),
		DiskHits:       int(m.cacheHits.With(string(tierDisk)).Value()),
		RecoveredJobs:  int(m.recovered.Value()),
		Completed:      int(m.completed.Total()),
		Failed:         int(m.failed.Total()),
		Canceled:       int(m.canceled.Total()),
		SimRuns:        int(m.simRuns.Value()),
		Rejected:       int(m.rejected.Value()),
		DeadlineHits:   int(m.deadlines.With("hit").Value()),
		DeadlineMisses: int(m.deadlines.With("miss").Value()),
	}
	s.mu.Lock()
	st.Workers = s.cfg.Workers
	st.Scheduler = SchedulerPack
	st.Jobs = len(s.jobs)
	s.mu.Unlock()
	st.QueueLen = s.pool.Waiting()
	st.BacklogSeconds = s.pool.Backlog().Seconds()
	if s.cache != nil {
		st.CacheEntries = s.cache.Len()
	}
	return st
}

// Close stops accepting submissions, lets already-queued jobs run and
// waits for every job goroutine to exit. Use Shutdown for a
// deadline-bounded stop that journals unfinished work, or CancelAll first
// for a fast abandon.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	s.closeJournal()
}

// Shutdown stops the service gracefully: intake stops immediately, then
// in-flight jobs get until ctx is done to finish on their own. Jobs still
// unfinished at the deadline are canceled and — on a durable service —
// journaled as pending, so the next Open re-queues exactly the work this
// process did not complete. Finished jobs are already persisted and
// journaled by the time their waiters observe completion, so a restart
// serves them as disk-backed cache hits.
func (s *Service) Shutdown(ctx context.Context) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.closeJournal()
		return
	}
	s.closed = true
	s.mu.Unlock()

	// Grace period: wait for in-flight and queued jobs to drain naturally.
	for _, j := range s.Jobs() {
		select {
		case <-j.Done():
			continue
		case <-ctx.Done():
		}
		break
	}
	if ctx.Err() != nil {
		// Out of patience: unfinished work is journaled as pending (via the
		// draining flag) and canceled.
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.CancelAll()
	}
	s.wg.Wait()
	s.closeJournal()
}

func (s *Service) closeJournal() {
	if s.jnl != nil {
		if err := s.jnl.Close(); err != nil {
			s.logf("journal close: %v", err)
		}
	}
}

// CancelAll cancels every queued or running job.
func (s *Service) CancelAll() {
	for _, j := range s.Jobs() {
		j.Cancel()
	}
}

// run executes one job on the calling worker.
func (s *Service) run(j *Job) {
	j.mu.Lock()
	if j.state != Queued { // canceled while waiting in the queue
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.state = Running
	j.started = time.Now()
	o := j.opts
	if o.Parallelism == 0 {
		o.Parallelism = s.cfg.JobParallelism
	}
	started := j.started
	j.mu.Unlock()
	defer cancel()
	if j.durable {
		s.journal("started", j.key)
	}
	s.logf("job %s: running %s", j.id, j.benchmark.Name)
	s.logJob(j, "job running")

	// The job's flow trace: a root span over the whole submit→terminal
	// lifetime with children for the submit-time cache lookup, the queue
	// wait, each executed flow pass (via the SpanHook below), the accurate
	// evaluator arming, and result persistence.
	tr := obs.NewTrace(j.id, j.submitted)
	root := tr.Root()
	root.SetArg("benchmark", j.benchmark.Name)
	root.SetArg("plan", j.planLabel)
	root.SetArg("corners", j.cornersLabel)
	root.SetArg("key", j.key)
	if !j.enqueued.IsZero() {
		root.ChildSpan("cache_lookup", j.submitted, j.enqueued)
		root.ChildSpan("queue_wait", j.enqueued, started)
	}

	// Wrap the accurate evaluator so large multi-corner evaluations run in
	// chunks with a cooperative slot yield
	// between them: a waiting job (an urgent or short one, by the pool's
	// ranking) borrows the slot while a big sweep is mid-flight. The shim
	// changes only when simulations run, never which — results and cache
	// keys are bit-identical with and without it.
	if s.cfg.SplitCorners > 0 {
		tk := j.ticket
		userWrap := o.WrapEval
		o.WrapEval = func(ev analysis.Evaluator) analysis.Evaluator {
			if userWrap != nil {
				ev = userWrap(ev)
			}
			return &sched.Chunked{
				Eval:  ev,
				Chunk: s.cfg.SplitCorners,
				Yield: func() error {
					yielded, yerr := s.pool.Yield(tk, ctx.Done())
					if yielded {
						s.metrics.yields.Inc()
					}
					return yerr
				},
				OnSplit: func(int) { s.metrics.splits.Inc() },
			}
		}
	}

	// Fan the flow's progress lines into the job's own log (and through to
	// any Log hook the submitter installed).
	userLog := o.Log
	o.Log = func(format string, args ...interface{}) {
		j.appendLog(fmt.Sprintf(format, args...))
		if userLog != nil {
			userLog(format, args...)
		}
	}
	// Bracket instrumented flow phases: each executed pass (and the
	// evaluator arming) becomes a child span on the trace and an observation
	// in the per-pass duration histogram. A submitter-installed hook still
	// sees every phase.
	userSpan := o.SpanHook
	o.SpanHook = func(kind, name string) func() {
		spanName := name
		switch kind {
		case "pass":
			spanName = "pass:" + name
		case "eco":
			// The eco pass's restore/apply phases show up as their own
			// span kind in the per-job trace artifact.
			spanName = "eco:" + name
		}
		sp := root.Child(spanName)
		t0 := time.Now()
		var userEnd func()
		if userSpan != nil {
			userEnd = userSpan(kind, name)
		}
		return func() {
			sp.End()
			d := time.Since(t0).Seconds()
			switch kind {
			case "pass":
				s.metrics.passes.With(name).Inc()
				s.metrics.passDur.With(name).Observe(d)
			case "eval":
				s.metrics.evalDur.Observe(d)
			}
			if userEnd != nil {
				userEnd()
			}
		}
	}

	res, err := core.SynthesizeContext(ctx, j.benchmark, o)

	var st State
	switch {
	case err == nil:
		st = Done
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
		st, res, err = Canceled, nil, context.Canceled
	default:
		st, res = Failed, nil
	}
	// Persist and publish to the service (cache insertion + write-through,
	// artifacts, journal, stats, in-flight removal) before the done channel
	// closes, so a waiter resubmitting the moment Wait returns is
	// guaranteed to hit the cache — and, on a durable service, a process
	// restarted after Wait returned is guaranteed a disk hit.
	if st == Done && res != nil {
		sp := root.Child("persist")
		if s.cache != nil {
			if derr := s.cache.Add(j.key, res); derr != nil {
				s.logf("job %s: result not persisted: %v", j.id, derr)
			}
		}
		s.persistJobLog(j)
		sp.End()
	}
	// Close the trace and persist it alongside the job's other artifacts
	// before waiters observe completion, so a restart (or another process
	// sharing the data dir) can serve the executed run's trace. Cache-hit
	// jobs never reach here and never overwrite it.
	tr.Finish()
	if st == Done {
		if data, terr := tr.ChromeJSON(); terr == nil {
			s.putArtifact(j.key, artTrace, data)
		}
	}
	s.jobFinished(j, st, res)
	j.mu.Lock()
	j.trace = tr
	j.finishLocked(st, res, err)
	j.mu.Unlock()
	if st == Done {
		// Feed the cost model: the observed runtime refines this feature
		// class's estimate, and the predicted-vs-actual ratio goes to the
		// calibration histogram (1.0 = perfect prediction).
		elapsed := time.Since(started)
		s.est.Observe(j.features, elapsed)
		if j.estimate > 0 {
			s.metrics.estRatio.Observe(elapsed.Seconds() / j.estimate.Seconds())
		}
	}
	if err != nil {
		s.logf("job %s: %s (%v)", j.id, st, err)
		s.logJob(j, "job "+string(st), slog.String("error", err.Error()))
	} else {
		s.logf("job %s: done in %v, %d runs, %s", j.id, j.Elapsed().Round(time.Millisecond), res.Runs, res.Final)
		s.logJob(j, "job finished",
			slog.Duration("elapsed", j.Elapsed()),
			slog.Int("sim_runs", res.Runs))
	}
}

// jobFinished updates service-level state after a job reached a terminal
// state (from a worker, or from Cancel on a queued job) and — for durable
// jobs, the only ones with a journaled "submitted" to resolve — journals
// the transition. The journal append (an fsync) runs after s.mu is
// released so disk latency never serializes the whole service; per-key
// ordering is preserved because a job's transitions come from one
// goroutine.
func (s *Service) jobFinished(j *Job, st State, res *core.Result) {
	s.mu.Lock()
	kind := ""
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	switch st {
	case Done:
		kind = "finished"
	case Failed:
		kind = "failed"
	case Canceled:
		if s.draining {
			// Shutdown interrupted this job; the next Open re-queues it.
			kind = "pending"
		} else {
			kind = "canceled"
		}
	}
	s.mu.Unlock()
	switch st {
	case Done:
		s.metrics.completed.With(j.planLabel, j.cornersLabel).Inc()
		if res != nil {
			s.metrics.observeResult(res)
		}
		s.ecoOutcome(j, "done")
	case Failed:
		s.metrics.failed.With(j.planLabel, j.cornersLabel).Inc()
		s.ecoOutcome(j, "failed")
	case Canceled:
		s.metrics.canceled.With(j.planLabel, j.cornersLabel).Inc()
		s.ecoOutcome(j, "canceled")
	}
	if j.durable && kind != "" {
		s.journal(kind, j.key)
	}
}
