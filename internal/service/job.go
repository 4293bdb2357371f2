package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/obs"
	"contango/internal/sched"
)

// State is a job's lifecycle phase.
type State string

const (
	// Queued jobs wait for a free worker.
	Queued State = "queued"
	// Running jobs are executing the synthesis flow on a worker.
	Running State = "running"
	// Done jobs finished successfully and carry a Result.
	Done State = "done"
	// Failed jobs ended with a synthesis error.
	Failed State = "failed"
	// Canceled jobs were stopped before completing.
	Canceled State = "canceled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool { return s == Done || s == Failed || s == Canceled }

// maxJobLogLines bounds the per-job progress buffer; the oldest lines are
// dropped once a job logs more than this.
const maxJobLogLines = 2000

// Job tracks one synthesis run through the service: its content-address
// key, lifecycle state, progress log, and eventual result. Identical
// submissions (same benchmark content and canonicalized options) coalesce
// onto one Job, so two callers may hold the same *Job.
type Job struct {
	id        string
	key       string
	benchmark *bench.Benchmark
	opts      core.Options
	submitted time.Time
	enqueued  time.Time // when the job entered the worker queue
	// planLabel and cornersLabel identify the job in metrics label sets and
	// structured log records (defaults spelled out, so an unset plan reads
	// as "paper" rather than "").
	planLabel    string
	cornersLabel string
	// durable marks jobs whose spec was persisted to the store: only their
	// lifecycle transitions are journaled — a journal record without a
	// spec could never be recovered and would nag every restart.
	durable bool
	// features and estimate are the cost model's view of the job, fixed at
	// submission. Neither participates in the content key: scheduling
	// decides when a result arrives, never what it is.
	features sched.Features
	estimate time.Duration
	// ticket is the job's claim in the packing scheduler's queue (nil for
	// cache-hit jobs).
	ticket *sched.Ticket

	svc  *Service
	done chan struct{}

	mu    sync.Mutex
	state State
	// deadline is the job's soft completion deadline (zero = none). It can
	// only tighten: coalesced submitters settle on the earliest one.
	deadline       time.Time
	deadlineMissed bool
	started        time.Time
	finished       time.Time
	cacheHit       bool
	cacheTier      cacheTier  // which tier served a cache hit ("" otherwise)
	trace          *obs.Trace // span tree of the job's lifecycle (set at finish)
	result         *core.Result
	err            error
	logs           []string
	dropped        int // log lines discarded from the front of the ring
	subs           map[int]chan string
	nextSub        int
	cancel         context.CancelFunc

	// Rendering a finished tree re-runs the multi-corner simulation, so
	// the SVG is produced once per job and the bytes reused.
	svgOnce sync.Once
	svgData []byte
	svgErr  error
}

// ID returns the service-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's content address: a stable hash of the benchmark
// plus canonicalized options. Jobs with equal keys compute equal results.
func (j *Job) Key() string { return j.key }

// Benchmark returns the benchmark the job synthesizes.
func (j *Job) Benchmark() *bench.Benchmark { return j.benchmark }

// Submitted returns the submission time.
func (j *Job) Submitted() time.Time { return j.submitted }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// CacheHit reports whether the job was served from the result cache
// without running the synthesizer.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// CacheTier returns which cache tier served the job ("memory" or "disk"),
// or "" for jobs that actually ran.
func (j *Job) CacheTier() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return string(j.cacheTier)
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Estimate returns the cost model's predicted runtime for the job, fixed
// at submission (zero for cache-hit jobs, which never needed one).
func (j *Job) Estimate() time.Duration { return j.estimate }

// Deadline returns the job's soft completion deadline and whether one is
// set. Coalesced resubmissions may have tightened it since submission.
func (j *Job) Deadline() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.deadline, !j.deadline.IsZero()
}

// DeadlineMissed reports whether the job finished successfully after its
// soft deadline. Always false while running and for undeadlined jobs.
func (j *Job) DeadlineMissed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.deadlineMissed
}

// tightenDeadline moves the job's soft deadline earlier (never later) and
// propagates the change to the packing scheduler's queue ranking. A zero
// deadline is a no-op, so undeadlined coalesced submissions never loosen
// an existing one.
func (j *Job) tightenDeadline(d time.Time) {
	if d.IsZero() {
		return
	}
	j.mu.Lock()
	if !j.deadline.IsZero() && !d.Before(j.deadline) {
		j.mu.Unlock()
		return
	}
	j.deadline = d
	tk := j.ticket
	j.mu.Unlock()
	if tk != nil && j.svc.pool != nil {
		j.svc.pool.UpdateDeadline(tk, d)
	}
}

// Result returns the synthesis result once the job is Done. Before
// completion it returns (nil, nil); after a failure or cancellation it
// returns (nil, err). The returned Result is the caller's own defensive
// deep copy: mutating it (rescaling the tree, truncating stages, …)
// cannot corrupt the cached entry that coalesced submitters and future
// resubmissions are served from.
func (j *Job) Result() (*core.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result.Clone(), j.err
}

// sharedResult returns the job's internal (cached, shared) result for
// read-only service-internal paths that should not pay for a deep copy.
func (j *Job) sharedResult() (*core.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Wait blocks until the job finishes or ctx is canceled, then returns the
// result. Canceling ctx abandons the wait only; it does not cancel the job.
func (j *Job) Wait(ctx context.Context) (*core.Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel stops the job: a queued job completes immediately as Canceled, a
// running job has its context canceled and stops at the next cascade
// checkpoint (no further simulator runs are started). Canceling a finished
// job is a no-op. Note that coalesced submitters share the Job, so Cancel
// cancels it for all of them.
func (j *Job) Cancel() {
	j.mu.Lock()
	switch j.state {
	case Queued:
		j.finishLocked(Canceled, nil, context.Canceled)
		j.mu.Unlock()
		j.svc.jobFinished(j, Canceled, nil)
		return
	case Running:
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
}

// Logs returns a copy of the buffered progress lines.
func (j *Job) Logs() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, len(j.logs))
	copy(out, j.logs)
	return out
}

// Subscribe registers a progress listener: past returns the lines logged so
// far, and ch streams subsequent lines until the job finishes (the channel
// is then closed). Slow consumers never block the synthesis worker — lines
// overflowing the channel buffer are dropped. The returned cancel func
// must be called to release the subscription if the consumer leaves early.
func (j *Job) Subscribe(buffer int) (past []string, ch <-chan string, cancel func()) {
	if buffer <= 0 {
		buffer = 64
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	past = make([]string, len(j.logs))
	copy(past, j.logs)
	c := make(chan string, buffer)
	if j.state.Finished() {
		close(c)
		return past, c, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[int]chan string)
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = c
	return past, c, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if sub, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(sub)
		}
	}
}

// appendLog records one progress line and fans it out to subscribers.
func (j *Job) appendLog(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.logs = append(j.logs, line)
	if len(j.logs) > maxJobLogLines {
		drop := len(j.logs) - maxJobLogLines
		j.logs = append(j.logs[:0], j.logs[drop:]...)
		j.dropped += drop
	}
	for _, c := range j.subs {
		select {
		case c <- line:
		default: // slow consumer: drop rather than stall the worker
		}
	}
}

// finishLocked transitions to a terminal state, publishes the outcome and
// releases subscribers. Callers hold j.mu and must then notify the service.
func (j *Job) finishLocked(st State, res *core.Result, err error) {
	if j.state.Finished() {
		return
	}
	j.state = st
	j.result = res
	j.err = err
	j.finished = time.Now()
	// A successful job's soft-deadline outcome is recorded and counted
	// before done closes, so a waiter returning from Wait already sees
	// both. Deadlines are advisory: a miss is counted and surfaced on the
	// job, nothing is killed. Failed and canceled jobs have no meaningful
	// deadline outcome.
	if st == Done && !j.deadline.IsZero() {
		j.deadlineMissed = j.finished.After(j.deadline)
		outcome := "hit"
		if j.deadlineMissed {
			outcome = "miss"
		}
		j.svc.metrics.deadlines.With(outcome).Inc()
	}
	for id, c := range j.subs {
		delete(j.subs, id)
		close(c)
	}
	close(j.done)
}

// SVG renders the finished job's clock tree with slack coloring. The
// rendering (which re-simulates the tree at every corner) runs at most
// once per process; on a durable service the bytes persist as the job's
// "svg" artifact, so later processes (and recovered jobs) serve the
// stored rendering instead of re-simulating. It fails if the job has not
// completed successfully.
func (j *Job) SVG() ([]byte, error) {
	res, err := j.sharedResult() // rendering only reads the tree
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("service: job %s is %s; no tree to render", j.id, j.State())
	}
	j.svgOnce.Do(func() {
		if data := j.svc.getArtifact(j.key, artSVG); data != nil {
			j.svgData = data
			return
		}
		var buf bytes.Buffer
		if err := core.RenderSVG(&buf, res); err != nil {
			j.svgErr = err
			return
		}
		j.svgData = buf.Bytes()
		j.svc.putArtifact(j.key, artSVG, j.svgData)
	})
	return j.svgData, j.svgErr
}

// Trace returns the job's span tree, available once the job reached a
// terminal state (nil before that).
func (j *Job) Trace() *obs.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// TraceJSON renders the job's trace in the Chrome trace-event format, or
// (nil, nil) while the job is still running.
func (j *Job) TraceJSON() ([]byte, error) {
	return j.Trace().ChromeJSON()
}

// Elapsed returns how long the job ran (so far, if still running).
func (j *Job) Elapsed() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.started.IsZero():
		return 0
	case j.finished.IsZero():
		return time.Since(j.started)
	default:
		return j.finished.Sub(j.started)
	}
}
