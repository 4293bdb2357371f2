package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"contango/internal/analysis"
	"contango/internal/core"
	"contango/internal/ctree"
	"contango/internal/sched"
	"contango/internal/tech"
)

// blockingOpts returns options whose first flow span parks the job until
// release is closed, pinning it in the Running state so tests can build a
// deterministic queue behind it. Hooks never enter the content key, so
// each blocking job needs its own benchmark variant to avoid coalescing.
func blockingOpts() (o core.Options, started chan struct{}, release chan struct{}) {
	o = fastOpts()
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	o.SpanHook = func(kind, name string) func() {
		once.Do(func() { close(started) })
		<-release
		return nil
	}
	return o, started, release
}

// Scheduling decides when a job runs, never what it computes. The same
// submission must produce bit-identical encoded results through the
// service with aggressive corner splitting, through the service with
// splitting off, and through a direct library call.
func TestPackLibraryBitParity(t *testing.T) {
	o := fastOpts()
	o.Corners = "mc:6:1" // wide enough that SplitCorners=2 actually splits

	encode := func(res *core.Result) []byte {
		res.Elapsed = 0 // wall-clock is the one field scheduling may change
		var buf bytes.Buffer
		if err := core.EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	viaService := func(cfg Config) []byte {
		svc := New(cfg)
		defer svc.Close()
		j, err := svc.Submit(tinyBench("parity", 0), o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return encode(res)
	}

	split := viaService(Config{Workers: 1, SplitCorners: 2})
	unsplit := viaService(Config{Workers: 1, SplitCorners: -1})
	res, err := core.Synthesize(tinyBench("parity", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	library := encode(res)
	if !bytes.Equal(split, unsplit) {
		t.Fatalf("split and unsplit runs produced different artifacts (%d vs %d bytes)", len(split), len(unsplit))
	}
	if !bytes.Equal(split, library) {
		t.Fatalf("service and library produced different artifacts (%d vs %d bytes)", len(split), len(library))
	}
}

// cornerCounter wraps an evaluator and records the corner count of every
// EvaluateCorners call it forwards.
type cornerCounter struct {
	analysis.Evaluator
	mu    sync.Mutex
	sizes []int
}

func (c *cornerCounter) EvaluateCorners(tr *ctree.Tree, cs []tech.Corner) ([]*analysis.Result, error) {
	c.mu.Lock()
	c.sizes = append(c.sizes, len(cs))
	c.mu.Unlock()
	return c.Evaluator.EvaluateCorners(tr, cs)
}

// The sweep splitter's chunk is SplitCorners rounded up to a multiple of
// the job's worker budget, so every slot tenure gives each stage-simulation
// worker whole corners: at parallelism 4, a split size of 10 runs each
// mc:24 evaluation as two chunks of 12.
func TestSplitCornersAlignsToJobParallelism(t *testing.T) {
	svc := New(Config{Workers: 1, SplitCorners: 10})
	defer svc.Close()
	o := fastOpts()
	o.Corners = "mc:24:1"
	o.Parallelism = 4
	counter := &cornerCounter{}
	o.WrapEval = func(ev analysis.Evaluator) analysis.Evaluator {
		counter.Evaluator = ev
		return counter
	}
	j, err := svc.Submit(tinyBench("align", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	counter.mu.Lock()
	defer counter.mu.Unlock()
	if len(counter.sizes) == 0 || len(counter.sizes)%2 != 0 {
		t.Fatalf("chunk sizes %v, want pairs of chunks", counter.sizes)
	}
	for _, n := range counter.sizes {
		if n != 12 {
			t.Fatalf("chunk sizes %v, want every chunk 12 corners", counter.sizes)
		}
	}
}

// Starvation demo: with one worker, a fast interactive job submitted
// behind a large Monte Carlo sweep must borrow the slot at a corner-chunk
// boundary and finish while the sweep is still running.
func TestPackInteractiveOvertakesSweep(t *testing.T) {
	svc := New(Config{Workers: 1, SplitCorners: 4})
	defer svc.Close()

	sweepOpts := fastOpts()
	sweepOpts.Corners = "mc:96:7"
	sweep, err := svc.Submit(tinyBench("sweep", 0), sweepOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Let the sweep take the slot before the interactive job shows up.
	deadline := time.Now().Add(5 * time.Second)
	for sweep.State() == Queued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	interactive, err := svc.Submit(tinyBench("interactive", 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interactive.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sweepStateAtFinish := sweep.State()
	if _, err := sweep.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sweepStateAtFinish == Done {
		t.Fatalf("interactive job did not overtake the sweep (sweep already done when it finished)")
	}
	if svc.Stats().QueueLen != 0 {
		t.Fatalf("queue not drained: %+v", svc.Stats())
	}
}

func TestPackAdmissionBacklogError(t *testing.T) {
	svc := New(Config{Workers: 1, MaxQueueWait: time.Millisecond})
	o, started, release := blockingOpts()
	j, err := svc.Submit(tinyBench("hold", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// The slot is held and the estimated backlog (the holder's remaining
	// estimate) exceeds the 1ms admission bound.
	_, err = svc.Submit(tinyBench("late", 1), fastOpts())
	var be *sched.BacklogError
	if !errors.As(err, &be) {
		t.Fatalf("Submit over the backlog bound = %v, want *sched.BacklogError", err)
	}
	if be.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", be.RetryAfter)
	}
	st := svc.Stats()
	if st.Rejected != 1 {
		t.Fatalf("Stats.Rejected = %d, want 1", st.Rejected)
	}
	if st.BacklogSeconds <= 0 {
		t.Fatalf("Stats.BacklogSeconds = %v, want > 0 with a held slot", st.BacklogSeconds)
	}

	close(release)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close()
}

func TestPackAdmissionQueueFull(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	o, started, release := blockingOpts()
	j, err := svc.Submit(tinyBench("hold", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := svc.Submit(tinyBench("waiter", 1), fastOpts()); err != nil {
		t.Fatalf("first waiter should be admitted: %v", err)
	}
	if _, err := svc.Submit(tinyBench("over", 2), fastOpts()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit past QueueDepth = %v, want ErrQueueFull", err)
	}
	close(release)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close()
}

// Backpressure over HTTP: a submission rejected by the backlog bound is a
// 429 with a Retry-After hint.
func TestHTTPBackpressureRetryAfter(t *testing.T) {
	svc := New(Config{Workers: 1, MaxQueueWait: time.Millisecond})
	srv := NewServer(svc)

	o, started, release := blockingOpts()
	j, err := svc.Submit(tinyBench("hold", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	body, err := json.Marshal(SubmitRequest{BenchText: benchText(t, "late", 1), Options: OptionsWire{Plan: "tbsz:1,twsz:1,twsn:1,bwsn:1,cycle(twsz:1,twsn:1,bwsn:1)"}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive seconds hint", ra)
	}

	close(release)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close()
}

func TestDeadlineAccounting(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	// Generous deadline: a hit.
	hit, err := svc.SubmitWith(tinyBench("deadline", 0), fastOpts(), SubmitOpts{Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hit.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := hit.Wire(); w.Deadline == nil || w.DeadlineMissed {
		t.Fatalf("hour-long deadline not recorded as met: %+v", w)
	}

	// Unmeetable deadline: recorded as a miss, job still completes.
	miss, err := svc.SubmitWith(tinyBench("deadline", 1), fastOpts(), SubmitOpts{Deadline: time.Nanosecond * 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := miss.Wait(context.Background())
	if err != nil || res == nil {
		t.Fatalf("missed-deadline job must still finish: %v", err)
	}
	w := miss.Wire()
	if w.Deadline == nil || !w.DeadlineMissed {
		t.Fatalf("10ns deadline not reported missed: %+v", w)
	}
	if w.EstimatedMs <= 0 {
		t.Fatalf("wire status has no runtime estimate: %+v", w)
	}

	st := svc.Stats()
	if st.DeadlineHits < 1 || st.DeadlineMisses != 1 {
		t.Fatalf("deadline counters = %d hit / %d miss, want >=1 / 1", st.DeadlineHits, st.DeadlineMisses)
	}
}

// Coalesced identical submissions settle on the earliest deadline.
func TestCoalesceTightensDeadline(t *testing.T) {
	svc := New(Config{Workers: 1})
	o, started, release := blockingOpts()
	j1, err := svc.Submit(tinyBench("co", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := svc.SubmitWith(tinyBench("co", 0), o, SubmitOpts{Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if j2 != j1 {
		t.Fatal("identical submission did not coalesce")
	}
	if j1.Wire().Deadline == nil {
		t.Fatal("coalesced deadline not applied to the shared job")
	}
	close(release)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close()
}

func TestQueueInfoPack(t *testing.T) {
	svc := New(Config{Workers: 1})
	o, started, release := blockingOpts()
	hold, err := svc.Submit(tinyBench("run", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waiter, err := svc.SubmitWith(tinyBench("wait", 1), fastOpts(), SubmitOpts{Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	q := svc.QueueInfo()
	if q.Scheduler != SchedulerPack || q.Slots != 1 || q.FreeSlots != 0 {
		t.Fatalf("queue info = %+v, want pack/1 slot/0 free", q)
	}
	if len(q.Running) != 1 || q.Running[0].Job != hold.ID() || q.Running[0].Benchmark != "run" {
		t.Fatalf("running = %+v, want the holding job", q.Running)
	}
	if len(q.Waiting) != 1 || q.Waiting[0].Job != waiter.ID() || q.Waiting[0].Deadline == nil {
		t.Fatalf("waiting = %+v, want the deadlined waiter", q.Waiting)
	}
	if q.QueueLen != 1 || q.BacklogSeconds <= 0 {
		t.Fatalf("queue_len = %d backlog = %v, want 1 and > 0", q.QueueLen, q.BacklogSeconds)
	}

	close(release)
	if _, err := waiter.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// The executed jobs fed the estimator.
	if q2 := svc.QueueInfo(); q2.Estimator.Observations == 0 {
		t.Fatalf("estimator saw no observations: %+v", q2.Estimator)
	}
}

func TestQueueEndpointHTTP(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	srv := NewServer(svc)

	req := httptest.NewRequest(http.MethodGet, "/api/v1/queue", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/v1/queue = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	for _, want := range []string{`"scheduler": "pack"`, `"slots": 2`, `"estimator"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("queue response missing %s:\n%s", want, body)
		}
	}
}
