package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/spice"
	"contango/internal/store"
)

// openDurable starts a durable test service rooted at dir (fsync off for
// speed; crash-layout consistency is what the tests exercise).
func openDurable(t *testing.T, dir string, cfg Config) *Service {
	t.Helper()
	cfg.DataDir = dir
	cfg.NoFsync = true
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// wireJSON renders a result through the same wire shape the HTTP API and
// -json CLI use; bit-identical wire JSON is the acceptance bar for a
// disk-served result.
func wireJSON(t *testing.T, res *core.Result) []byte {
	t.Helper()
	raw, err := json.Marshal(ResultToWire(res))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRestartServesDiskHit is the acceptance round-trip: a finished job
// survives a service restart as a cache hit served from disk, with a
// bit-identical wire result, without burning a simulator run.
func TestRestartServesDiskHit(t *testing.T) {
	dir := t.TempDir()

	svc1 := openDurable(t, dir, Config{Workers: 2})
	j1, err := svc1.Submit(tinyBench("durable", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := wireJSON(t, res1)
	svc1.Close()

	svc2 := openDurable(t, dir, Config{Workers: 2})
	defer svc2.Close()
	if n := svc2.Stats().RecoveredJobs; n != 0 {
		t.Errorf("finished job recovered as unfinished: RecoveredJobs = %d", n)
	}
	j2, err := svc2.Submit(tinyBench("durable", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() {
		t.Fatal("restart resubmission should be a cache hit")
	}
	if j2.CacheTier() != "disk" {
		t.Errorf("CacheTier = %q, want disk", j2.CacheTier())
	}
	if got := wireJSON(t, res2); !bytes.Equal(got, want) {
		t.Errorf("disk-served result is not bit-identical:\n got %s\nwant %s", got, want)
	}
	st := svc2.Stats()
	if st.DiskHits != 1 || st.CacheHits != 1 {
		t.Errorf("DiskHits/CacheHits = %d/%d, want 1/1", st.DiskHits, st.CacheHits)
	}
	if st.SimRuns != 0 {
		t.Errorf("disk hit burned %d simulator runs", st.SimRuns)
	}

	// The promotion landed in memory: the next identical submission is a
	// memory hit.
	j3, err := svc2.Submit(tinyBench("durable", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j3.CacheTier() != "memory" {
		t.Errorf("post-promotion CacheTier = %q, want memory", j3.CacheTier())
	}

	// The finished job's artifacts are on disk.
	arts := svc2.Artifacts(j2.Key())
	names := map[string]bool{}
	for _, a := range arts {
		names[a.Name] = true
	}
	for _, want := range []string{"result", "log", "job"} {
		if !names[want] {
			t.Errorf("artifact %q missing after restart (have %v)", want, arts)
		}
	}
}

// TestRecoveryRequeuesUnfinished writes a journal with a submitted-but-
// unfinished job (as a crashed process would leave behind) and asserts the
// next Open re-queues and completes it.
func TestRecoveryRequeuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	b := tinyBench("crashed", 0)
	o := fastOpts()
	key := JobKey(b, o)

	// Hand-craft the crash leftovers: spec object + "submitted" record.
	st, err := store.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var bb bytes.Buffer
	if err := bench.Write(&bb, b); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(jobSpec{Bench: bb.String(), Options: optionsToWire(o)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key+".job", spec); err != nil {
		t.Fatal(err)
	}
	jnl, _, err := store.OpenJournal(filepath.Join(dir, "journal.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append("submitted", key); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	svc := openDurable(t, dir, Config{Workers: 1})
	defer svc.Close()
	if n := svc.Stats().RecoveredJobs; n != 1 {
		t.Fatalf("RecoveredJobs = %d, want 1", n)
	}
	jobs := svc.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs after recovery = %d, want 1", len(jobs))
	}
	if jobs[0].Key() != key {
		t.Error("recovered job has a different content key")
	}
	res, err := jobs[0].Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Benchmark.Name != "crashed" {
		t.Fatalf("recovered job produced a bad result: %+v", res)
	}
	if jobs[0].CacheHit() {
		t.Error("an unfinished job must actually re-run, not hit the cache")
	}

	// After completion the journal records it as finished: the next open
	// recovers nothing and serves the result from disk.
	svc.Close()
	svc2 := openDurable(t, dir, Config{Workers: 1})
	defer svc2.Close()
	if n := svc2.Stats().RecoveredJobs; n != 0 {
		t.Errorf("second open recovered %d jobs, want 0", n)
	}
	j, err := svc2.Submit(tinyBench("crashed", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit() || j.CacheTier() != "disk" {
		t.Errorf("completed recovered job not servable from disk (hit=%v tier=%s)",
			j.CacheHit(), j.CacheTier())
	}
}

// TestRecoverySkipsSpecWithStaleKey: a spec written in an older format
// (here a "cycles" field that decoding now drops) no longer reproduces the
// key it was journaled under. Recovery logs it and leaves it alone instead
// of re-queueing the default cascade under the old key.
func TestRecoverySkipsSpecWithStaleKey(t *testing.T) {
	dir := t.TempDir()
	b := tinyBench("stale-spec", 0)
	// The key the older format gave {"cycles": -1}: the default fingerprint
	// with that budget in place of the default one.
	fp := strings.Replace(OptionsFingerprint(core.Options{}), ";cycles=3;", ";cycles=-1;", 1)
	h := sha256.New()
	h.Write([]byte(b.Hash()))
	h.Write([]byte{0})
	h.Write([]byte(fp))
	key := hex.EncodeToString(h.Sum(nil))

	st, err := store.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var bb bytes.Buffer
	if err := bench.Write(&bb, b); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(map[string]interface{}{
		"bench":   bb.String(),
		"options": map[string]interface{}{"cycles": -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key+".job", spec); err != nil {
		t.Fatal(err)
	}
	jnl, _, err := store.OpenJournal(filepath.Join(dir, "journal.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append("submitted", key); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	logs := &recordCapture{}
	svc, err := Open(Config{Workers: 1, DataDir: dir, NoFsync: true, Logger: slog.New(logs)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if n := svc.Stats().RecoveredJobs; n != 0 {
		t.Errorf("RecoveredJobs = %d, want 0", n)
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("jobs after recovery = %d, want 0", n)
	}
	// Open replays the journal synchronously: the skip is logged by now,
	// once, at Warn, naming the key.
	recs := logs.all()
	if len(recs) != 1 || recs[0].Level != slog.LevelWarn || recordAttr(recs[0], "key") != key {
		t.Errorf("want one Warn record with key=%s, got %v", key, recs)
	}
}

// TestShutdownJournalsPending: a graceful shutdown with an expired grace
// period journals both the running and the queued job as pending, and the
// next open re-runs both to completion.
func TestShutdownJournalsPending(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{Workers: 1})

	release := make(chan struct{})
	o := fastOpts()
	var once sync.Once
	o.Log = func(string, ...interface{}) {
		once.Do(func() { <-release })
	}
	running, err := svc.Submit(tinyBench("inflight", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(tinyBench("waiting", 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Grace period already expired: Shutdown stops intake, cancels both
	// jobs and journals them as pending.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.Shutdown(ctx)
	}()
	// Release the running job only once its cancellation has landed, or
	// the tiny job could finish first. CancelAll cancels jobs in submission
	// order, so the queued job turning canceled means the running job's
	// context is already canceled.
	select {
	case <-queued.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not cancel the queued job")
	}
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if _, err := svc.Submit(tinyBench("late", 2), fastOpts()); err != ErrClosed {
		t.Errorf("post-shutdown submit err = %v, want ErrClosed", err)
	}
	if running.State() != Canceled || queued.State() != Canceled {
		t.Fatalf("states after shutdown: %s/%s, want canceled/canceled",
			running.State(), queued.State())
	}

	svc2 := openDurable(t, dir, Config{Workers: 2})
	defer svc2.Close()
	if n := svc2.Stats().RecoveredJobs; n != 2 {
		t.Fatalf("RecoveredJobs = %d, want 2", n)
	}
	for _, j := range svc2.Jobs() {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("recovered job %s: %v", j.ID(), err)
		}
	}
}

// TestUserCancelNotRecovered: a job canceled by the user (not by a
// shutdown drain) is terminal — the next open must not resurrect it.
func TestUserCancelNotRecovered(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{Workers: 1})

	hold := make(chan struct{})
	o := fastOpts()
	var once sync.Once
	o.Log = func(string, ...interface{}) { once.Do(func() { <-hold }) }
	blocker, err := svc.Submit(tinyBench("blocker", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := svc.Submit(tinyBench("victim", 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if _, err := victim.Wait(context.Background()); err != context.Canceled {
		t.Fatal(err)
	}
	close(hold)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2 := openDurable(t, dir, Config{Workers: 1})
	defer svc2.Close()
	if n := svc2.Stats().RecoveredJobs; n != 0 {
		t.Errorf("user-canceled job resurrected: RecoveredJobs = %d", n)
	}
}

// TestCorruptionQuarantineAndContinue damages both the persisted result
// blob and the journal tail; the service must start cleanly, treat the
// bad blob as a miss (quarantining it) and re-run the job.
func TestCorruptionQuarantineAndContinue(t *testing.T) {
	dir := t.TempDir()
	b := tinyBench("bitrot", 0)
	o := fastOpts()
	key := JobKey(b, o)

	svc1 := openDurable(t, dir, Config{Workers: 1})
	j1, err := svc1.Submit(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	// Bit-flip the persisted result and tear the journal's tail.
	blob := filepath.Join(dir, "objects", key[:2], key+".result")
	raw, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(blob, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write([]byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	svc2 := openDurable(t, dir, Config{Workers: 1})
	defer svc2.Close()
	j2, err := svc2.Submit(tinyBench("bitrot", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j2.CacheHit() {
		t.Error("corrupt blob served as a cache hit")
	}
	if res == nil || res.Final.TotalCap <= 0 {
		t.Fatalf("re-run produced a bad result: %+v", res)
	}
	// The damaged blob was quarantined, and the re-run re-persisted a good
	// one: a third submission (fresh service, same dir) is a disk hit again.
	if entries, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(entries) == 0 {
		t.Errorf("quarantine empty after corrupt read (err=%v)", err)
	}
	svc2.Close()
	svc3 := openDurable(t, dir, Config{Workers: 1})
	defer svc3.Close()
	j3, err := svc3.Submit(tinyBench("bitrot", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !j3.CacheHit() || j3.CacheTier() != "disk" {
		t.Error("re-persisted result not servable from disk")
	}
}

// TestResultDefensiveCopies is the shared-pointer-footgun regression test:
// mutating a result handed out by the service must not change what a
// re-fetch (same job or cache-hit resubmission) returns.
func TestResultDefensiveCopies(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	j1, err := svc.Submit(tinyBench("mutate", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantSkew := res1.Final.Skew
	wantRuns := res1.Stages[0].Runs
	top := func(r *core.Result) *float64 {
		a := r.Tree.Arena()
		return &a.Snake[a.Children(a.Root())[0]]
	}
	wantSnake := *top(res1)

	// Vandalize everything reachable from the returned result.
	res1.Final.Skew = -777
	res1.Stages[0].Runs = -777
	*top(res1) = 777
	res1.Benchmark.Sinks[0].Cap = 777

	refetch, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}
	if refetch.Final.Skew != wantSkew || refetch.Stages[0].Runs != wantRuns ||
		*top(refetch) != wantSnake {
		t.Error("mutations through a returned result leaked into the job")
	}

	// And a cache-hit resubmission still sees the pristine result.
	j2, err := svc.Submit(tinyBench("mutate", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() {
		t.Fatal("resubmission should hit the cache")
	}
	if res2.Final.Skew != wantSkew || res2.Stages[0].Runs != wantRuns ||
		*top(res2) != wantSnake {
		t.Error("cache-hit result carries a caller's mutations")
	}
}

// TestCacheCounterStats exercises the new Stats counters on a memory-only
// service: misses on first submissions, evictions under a tiny capacity.
func TestCacheCounterStats(t *testing.T) {
	svc := New(Config{Workers: 1, CacheEntries: 1})
	defer svc.Close()

	for i := 0; i < 2; i++ {
		j, err := svc.Submit(tinyBench("count", i), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.CacheMisses != 2 {
		t.Errorf("CacheMisses = %d, want 2", st.CacheMisses)
	}
	if st.CacheEvictions != 1 {
		t.Errorf("CacheEvictions = %d, want 1 (capacity 1, two results)", st.CacheEvictions)
	}
	if st.DiskHits != 0 || st.RecoveredJobs != 0 {
		t.Errorf("disk counters moved on a memory-only service: %+v", st)
	}
}

// TestDataDirUnsetKeepsInMemoryBehavior: without DataDir nothing touches
// the filesystem and the artifact surface reports empty.
func TestDataDirUnsetKeepsInMemoryBehavior(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	j, err := svc.Submit(tinyBench("ephemeral", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if svc.Durable() {
		t.Error("service without DataDir claims durability")
	}
	if arts := svc.Artifacts(j.Key()); len(arts) != 0 {
		t.Errorf("in-memory service lists artifacts: %v", arts)
	}
	if _, err := svc.Artifact(j.Key(), "result"); err == nil {
		t.Error("in-memory artifact read should fail")
	}
}

// TestLibraryOnlyOptionsNotJournaled: a submission whose options cannot be
// wire-round-tripped (custom engine) runs normally on a durable service
// but journals nothing — so restarts never nag about an unrecoverable
// spec, and nothing is "recovered".
func TestLibraryOnlyOptionsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{Workers: 1})

	o := fastOpts()
	o.Engine = spice.New()
	o.Engine.Dt = 0.5 // not representable in OptionsWire: key won't round-trip
	j, err := svc.Submit(tinyBench("libonly", 0), o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// Recovery records are Info or Warn records; Open replays the
	// journal synchronously, so the log is complete when it returns.
	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	svc2, err := Open(Config{Workers: 1, DataDir: dir, NoFsync: true, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if n := svc2.Stats().RecoveredJobs; n != 0 {
		t.Errorf("RecoveredJobs = %d, want 0", n)
	}
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "recovery") {
			t.Errorf("restart nagged about an unrecoverable job: %s", line)
		}
	}
	// The executed result was still persisted via the cache write-through:
	// an identical submission (same custom engine params) is a disk hit.
	o2 := fastOpts()
	o2.Engine = spice.New()
	o2.Engine.Dt = 0.5
	j2, err := svc2.Submit(tinyBench("libonly", 0), o2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() || j2.CacheTier() != "disk" {
		t.Errorf("library-only result not reusable from disk: hit=%v tier=%q",
			j2.CacheHit(), j2.CacheTier())
	}
}
