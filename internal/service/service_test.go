package service

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/obs"
	"contango/internal/spice"
)

// tinyBench builds a fast-to-simulate benchmark; variant perturbs sink
// capacitances so different variants content-address differently.
func tinyBench(name string, variant int) *bench.Benchmark {
	locs := []geom.Point{
		{X: 2500, Y: 800}, {X: 2600, Y: 2100}, {X: 3500, Y: 1500},
		{X: 1500, Y: 2600}, {X: 3200, Y: 2900}, {X: 900, Y: 900},
		{X: 2100, Y: 1700}, {X: 3900, Y: 600},
	}
	var sinks []dme.Sink
	for i, l := range locs {
		sinks = append(sinks, dme.Sink{
			Loc:  l,
			Cap:  25 + float64(i) + float64(variant)*0.5,
			Name: fmt.Sprintf("s%d", i),
		})
	}
	return &bench.Benchmark{
		Name:     name,
		Die:      geom.NewRect(0, 0, 4200, 3200),
		Source:   geom.Pt(0, 1600),
		SourceR:  0.1,
		Sinks:    sinks,
		CapLimit: 60000,
	}
}

// fastOpts skips the whole cascade so a job costs only a handful of
// evaluations — enough to exercise the service machinery.
func fastOpts() core.Options {
	return core.Options{
		MaxRounds: 1,
		Cycles:    1,
		SkipStages: map[string]bool{
			"tbsz": true, "twsz": true, "twsn": true, "bwsn": true,
		},
	}
}

func TestSubmitWaitAndCacheHit(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	b := tinyBench("cache-me", 0)
	j1, err := svc.Submit(b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res1 == nil || res1.Final.TotalCap <= 0 {
		t.Fatalf("bad result: %+v", res1)
	}
	if j1.CacheHit() {
		t.Error("first run must not be a cache hit")
	}
	runsAfterFirst := svc.Stats().SimRuns
	if runsAfterFirst <= 0 {
		t.Fatalf("SimRuns = %d, want > 0", runsAfterFirst)
	}

	// Identical content (fresh benchmark object, same bytes) hits the cache.
	j2, err := svc.Submit(tinyBench("cache-me", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() {
		t.Error("identical resubmission should be served from cache")
	}
	if j2.CacheTier() != "memory" {
		t.Errorf("CacheTier = %q, want memory", j2.CacheTier())
	}
	if res2 == res1 {
		t.Error("cache hits must hand out defensive copies, not the shared result")
	}
	if !reflect.DeepEqual(res2.Final, res1.Final) || res2.Runs != res1.Runs {
		t.Error("cache hit content differs from the original result")
	}
	st := svc.Stats()
	if st.SimRuns != runsAfterFirst {
		t.Errorf("cache hit ran the simulator: %d -> %d", runsAfterFirst, st.SimRuns)
	}
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", st.CacheHits)
	}

	// Different options miss.
	o := fastOpts()
	o.Gamma = 0.2
	j3, err := svc.Submit(tinyBench("cache-me", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j3.CacheHit() {
		t.Error("different gamma must not hit the cache")
	}
}

// TestConcurrentBatchSaturatesPool proves the pool genuinely runs jobs in
// parallel: the first `workers` jobs block at their first progress line
// until all of them have arrived, which can only happen if that many jobs
// are in flight at once.
func TestConcurrentBatchSaturatesPool(t *testing.T) {
	const workers = 4
	svc := New(Config{Workers: workers})
	defer svc.Close()

	gate := make(chan struct{})
	var arrived int32
	reqs := make([]Request, 8)
	for i := range reqs {
		o := fastOpts()
		once := new(sync.Once)
		o.Log = func(string, ...interface{}) {
			once.Do(func() {
				if atomic.AddInt32(&arrived, 1) == workers {
					close(gate)
				}
				select {
				case <-gate:
				case <-time.After(20 * time.Second):
					t.Error("worker pool never reached 4 concurrent jobs")
				}
			})
		}
		reqs[i] = Request{Bench: tinyBench(fmt.Sprintf("conc-%d", i), i), Opts: o}
	}

	wallStart := time.Now()
	jobs, err := svc.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("jobs = %d, want 8", len(jobs))
	}
	results, err := WaitAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(wallStart)

	var sum time.Duration
	for i, j := range jobs {
		if j.State() != Done {
			t.Fatalf("job %s state %s", j.ID(), j.State())
		}
		if results[i] == nil || results[i].Benchmark.Name != reqs[i].Bench.Name {
			t.Fatalf("job %d: wrong or missing result", i)
		}
		sum += j.Elapsed()
	}
	if got := atomic.LoadInt32(&arrived); got < workers {
		t.Errorf("only %d jobs ran concurrently, want %d", got, workers)
	}
	// Concurrency means wall clock beats the serial sum of job times.
	if wall >= sum {
		t.Errorf("no speedup: wall %v >= serial sum %v", wall, sum)
	}
}

// TestBatchResubmissionServedFromCache is the acceptance scenario: a batch
// of 8 jobs on a 4-worker pool, then the identical batch again — the rerun
// must be 100% cache hits with zero new simulator runs.
func TestBatchResubmissionServedFromCache(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()

	mkBatch := func() []Request {
		reqs := make([]Request, 8)
		for i := range reqs {
			reqs[i] = Request{Bench: tinyBench(fmt.Sprintf("batch-%d", i), i), Opts: fastOpts()}
		}
		return reqs
	}

	jobs, err := svc.SubmitBatch(mkBatch())
	if err != nil {
		t.Fatal(err)
	}
	first, err := WaitAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	simRuns := svc.Stats().SimRuns

	again, err := svc.SubmitBatch(mkBatch())
	if err != nil {
		t.Fatal(err)
	}
	second, err := WaitAll(context.Background(), again)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, j := range again {
		if j.CacheHit() {
			hits++
		}
		if !reflect.DeepEqual(second[i].Final, first[i].Final) || second[i].Runs != first[i].Runs {
			t.Errorf("job %d: resubmission returned a different result", i)
		}
	}
	if hits != len(again) {
		t.Errorf("cache hits = %d/%d, want all", hits, len(again))
	}
	if st := svc.Stats(); st.SimRuns != simRuns {
		t.Errorf("resubmission burned simulator runs: %d -> %d", simRuns, st.SimRuns)
	}
}

// TestCoalescing: an identical submission while the first is still in
// flight joins it instead of spawning a second run.
func TestCoalescing(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	release := make(chan struct{})
	o := fastOpts()
	var once sync.Once
	o.Log = func(string, ...interface{}) {
		once.Do(func() { <-release })
	}
	j1, err := svc.Submit(tinyBench("dup", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	// Same content while j1 runs (Log hooks are excluded from the key).
	j2, err := svc.Submit(tinyBench("dup", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Error("identical in-flight submission should coalesce onto the same job")
	}
	close(release)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1", st.Coalesced)
	}
}

// TestCancelMidCascade cancels a running job from inside its own progress
// stream and asserts the simulator's Runs counter stops advancing.
func TestCancelMidCascade(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	eng := spice.New()
	o := core.Options{Engine: eng, MaxRounds: 16, Cycles: 3}
	var j *Job
	ready := make(chan struct{})
	var cancelOnce sync.Once
	o.Log = func(format string, args ...interface{}) {
		line := fmt.Sprintf(format, args...)
		// The INITIAL record marks the start of the optimization cascade;
		// cancel there so rounds of TBSZ/TWSZ/... still lie ahead.
		if strings.Contains(line, "[INITIAL]") {
			cancelOnce.Do(func() {
				<-ready // wait until the test published j
				j.Cancel()
			})
		}
	}
	var err error
	j, err = svc.Submit(tinyBench("cancel-me", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	close(ready)

	res, err := j.Wait(context.Background())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled job must not publish a result")
	}
	if j.State() != Canceled {
		t.Fatalf("state = %s, want canceled", j.State())
	}
	// Wait() returning synchronizes with the worker, so reading the engine
	// is race-free; the counter must have stopped advancing.
	runs := eng.Runs
	if runs == 0 {
		t.Fatal("job was canceled before any simulation — cascade never started?")
	}
	time.Sleep(50 * time.Millisecond)
	if eng.Runs != runs {
		t.Errorf("Runs still advancing after cancel: %d -> %d", runs, eng.Runs)
	}
	if st := svc.Stats(); st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}
}

// TestCancelQueued cancels a job that never got a worker.
func TestCancelQueued(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	hold := make(chan struct{})
	o := fastOpts()
	var once sync.Once
	o.Log = func(string, ...interface{}) {
		once.Do(func() { <-hold })
	}
	blocker, err := svc.Submit(tinyBench("blocker", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(tinyBench("victim", 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if _, err := queued.Wait(context.Background()); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(hold)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A canceled queued job must not block the worker or leak in-flight
	// state: resubmitting it now runs normally.
	redo, err := svc.Submit(tinyBench("victim", 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := redo.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if redo.State() != Done {
		t.Errorf("resubmitted job state = %s, want done", redo.State())
	}
}

func TestJobKeyCanonicalization(t *testing.T) {
	b := tinyBench("keys", 0)

	// Zero options and the spelled-out defaults address identically.
	explicit := core.Options{Gamma: 0.10, MaxRounds: 16, Cycles: 3}
	if JobKey(b, core.Options{}) != JobKey(b, explicit) {
		t.Error("zero options and explicit defaults should share a key")
	}
	// Hooks and counters don't leak into the key.
	withHooks := core.Options{Log: func(string, ...interface{}) {}, Engine: spice.New()}
	withHooks.Engine.Runs = 99
	if JobKey(b, core.Options{}) != JobKey(b, withHooks) {
		t.Error("Log hook / engine run counter must not change the key")
	}
	// Result-shaping knobs do.
	if JobKey(b, core.Options{}) == JobKey(b, core.Options{Gamma: 0.2}) {
		t.Error("gamma must change the key")
	}
	if JobKey(b, core.Options{}) == JobKey(b, core.Options{LargeInverters: true}) {
		t.Error("inverter family must change the key")
	}
	if JobKey(b, core.Options{}) == JobKey(b, core.Options{FastSim: true}) {
		t.Error("simulator accuracy must change the key")
	}
	// SkipStages is canonicalized regardless of map construction order.
	a := core.Options{SkipStages: map[string]bool{"tbsz": true, "bwsn": true, "twsz": false}}
	c := core.Options{SkipStages: map[string]bool{"bwsn": true, "tbsz": true}}
	if JobKey(b, a) != JobKey(b, c) {
		t.Error("skip-stage sets with equal content should share a key")
	}
	// Benchmark content drives the key too.
	if JobKey(b, core.Options{}) == JobKey(tinyBench("keys", 1), core.Options{}) {
		t.Error("different benchmark content must change the key")
	}
	// And generation is deterministic: a regenerated suite benchmark keeps
	// its content address.
	b1, _ := bench.ISPD09("ispd09f22")
	b2, _ := bench.ISPD09("ispd09f22")
	if b1.Hash() != b2.Hash() {
		t.Error("benchmark generation is not deterministic")
	}
}

func TestResultCacheLRU(t *testing.T) {
	missCtr, evictCtr := &obs.Counter{}, &obs.Counter{}
	c := newResultCache(2, nil, missCtr, evictCtr)
	r1, r2, r3 := &core.Result{}, &core.Result{}, &core.Result{}
	mustAdd := func(k string, r *core.Result) {
		if err := c.Add(k, r); err != nil {
			t.Fatalf("Add(%s): %v", k, err)
		}
	}
	mustAdd("a", r1)
	mustAdd("b", r2)
	if _, tier, ok := c.Get("a"); !ok || tier != tierMemory { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	mustAdd("c", r3)
	if _, _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, _, ok := c.Get("a"); !ok || got != r1 {
		t.Error("a should survive eviction")
	}
	if got, _, ok := c.Get("c"); !ok || got != r3 {
		t.Error("c should be cached")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if evictions := evictCtr.Value(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if misses := missCtr.Value(); misses != 1 { // the Get("b") after eviction
		t.Errorf("misses = %d, want 1", misses)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.Close()
	if _, err := svc.Submit(tinyBench("late", 0), fastOpts()); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestSweepExpansion(t *testing.T) {
	sw := Sweep{Gammas: []float64{0.1, 0.2}, MaxRounds: []int{4, 8}, LargeInverters: []bool{false, true}}
	opts := sw.Expand(core.Options{})
	if len(opts) != 8 {
		t.Fatalf("sweep points = %d, want 8", len(opts))
	}
	seen := map[string]bool{}
	for _, o := range opts {
		seen[OptionsFingerprint(o)] = true
	}
	if len(seen) != 8 {
		t.Errorf("distinct fingerprints = %d, want 8", len(seen))
	}
	reqs := SweepRequests([]*bench.Benchmark{tinyBench("swp", 0)}, core.Options{}, Sweep{Gammas: []float64{0.1, 0.2}})
	if len(reqs) != 2 {
		t.Errorf("requests = %d, want 2", len(reqs))
	}
	if suite := ISPD09Requests(core.Options{}); len(suite) != 7 {
		t.Errorf("suite requests = %d, want 7", len(suite))
	}
}

func TestPlanKeying(t *testing.T) {
	b := tinyBench("plankeys", 0)

	// The default, the named default, and its spelled-out spec all address
	// one cache slot.
	def := JobKey(b, core.Options{})
	if JobKey(b, core.Options{Plan: "paper"}) != def {
		t.Error("named default plan should share the zero-options key")
	}
	spelled := core.Options{Plan: "zst,legalize,buffer,polarity,tbsz,twsz,twsn,bwsn,cycle(twsz,twsn,bwsn)"}
	if JobKey(b, spelled) != def {
		t.Error("spelled-out paper spec should share the default key")
	}
	// Different cascades address differently.
	if JobKey(b, core.Options{Plan: "fast"}) == def {
		t.Error("fast plan must change the key")
	}
	if JobKey(b, core.Options{Plan: "wire-only"}) == JobKey(b, core.Options{Plan: "fast"}) {
		t.Error("distinct plans share a key")
	}
	// Disabled convergence cycles are distinct from the default budget.
	if JobKey(b, core.Options{Cycles: -1}) == def {
		t.Error("Cycles: -1 must change the key")
	}
}

func TestSubmitRejectsInvalidPlan(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	if _, err := svc.Submit(tinyBench("badplan", 0), core.Options{Plan: "cycle(twsz"}); err == nil {
		t.Fatal("invalid plan spec accepted")
	}
	if st := svc.Stats(); st.Jobs != 0 {
		t.Errorf("rejected submission left %d jobs", st.Jobs)
	}
}

func TestDefaultPlanApplied(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultPlan: "no-cycles"})
	defer svc.Close()
	o := fastOpts()
	j, err := svc.Submit(tinyBench("defplan", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	want := o
	want.Plan = "no-cycles"
	if j.Key() != JobKey(j.Benchmark(), want) {
		t.Error("service default plan not reflected in the job key")
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// An explicit plan still wins over the service default.
	j2, err := svc.Submit(tinyBench("defplan", 0), core.Options{Plan: "tune-only", MaxRounds: 1,
		SkipStages: map[string]bool{"tbsz": true, "bwsn": true}})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Key() == j.Key() {
		t.Error("explicit plan collapsed onto the service default")
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobStreamsPassEvents(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	j, err := svc.Submit(tinyBench("passevents", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var passes int
	for _, line := range j.Logs() {
		if core.IsProgressLine(line) {
			passes++
		}
	}
	if passes == 0 {
		t.Error("job log carries no per-pass pipeline progress lines")
	}
}

func TestSkipStagesCaseKeyConsistency(t *testing.T) {
	// {"TBSZ": true} and {"tbsz": true} must share a key AND behave
	// identically at run time (Resolve canonicalizes the skip set), so the
	// cache can never serve one configuration's result for the other.
	b := tinyBench("skipcase", 0)
	upper := core.Options{SkipStages: map[string]bool{"TBSZ": true}}
	lower := core.Options{SkipStages: map[string]bool{"tbsz": true}}
	if JobKey(b, upper) != JobKey(b, lower) {
		t.Fatal("case-differing skip sets diverge in the key")
	}
	if r := upper.Resolve(); !r.SkipStages["tbsz"] {
		t.Error("Resolve did not canonicalize the skip set")
	}
	if upper.SkipStages["tbsz"] {
		t.Error("Resolve mutated the caller's map")
	}
}
