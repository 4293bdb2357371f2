package service

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// ecoDelta references tinyBench's s0..s7 sink names: one move, one
// removal — the perturbed benchmark has 7 sinks, so a successful ECO run
// is distinguishable from a mis-served base result.
const ecoDelta = "move s0 2550 950\nremove s7\n"

func TestSubmitECOEndToEndAndCache(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	b := tinyBench("eco-base", 0)
	baseJob, err := svc.Submit(b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baseJob.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	j, err := svc.SubmitECO(baseJob.Key(), ecoDelta, fastOpts(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Key() == baseJob.Key() {
		t.Fatal("eco job shares the base job's content key")
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j.CacheHit() {
		t.Error("first eco run must not be a cache hit")
	}
	if got := len(res.Tree.Arena().Sinks()); got != len(b.Sinks)-1 {
		t.Fatalf("eco result has %d sinks, want %d", got, len(b.Sinks)-1)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := svc.metrics.ecoJobs.With("done").Value(); got < 1 {
		t.Errorf("contango_eco_jobs_total{outcome=done} = %d, want >= 1", got)
	}

	// The same (base, delta) pair is one cache slot.
	j2, err := svc.SubmitECO(baseJob.Key(), ecoDelta, fastOpts(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() {
		t.Error("repeated eco submission missed the cache")
	}
	if j2.Key() != j.Key() {
		t.Errorf("repeated eco submission changed keys: %s vs %s", j2.Key(), j.Key())
	}
}

func TestSubmitECOErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	baseJob, err := svc.Submit(tinyBench("eco-errs", 0), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baseJob.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, base, delta, want string
	}{
		{"unknown base", "deadbeef", ecoDelta, "no finished result"},
		{"empty delta", baseJob.Key(), "# nothing\n", "delta is empty"},
		{"malformed delta", baseJob.Key(), "teleport s0 1 2\n", "unknown directive"},
		{"unknown sink", baseJob.Key(), "remove nope\n", "no sink"},
	}
	for _, c := range cases {
		if _, err := svc.SubmitECO(c.base, c.delta, fastOpts(), SubmitOpts{}); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestECORecoveryHydratesBase: an eco job interrupted by shutdown persists
// only its base key and delta; the next open must re-read the base tree
// from the disk cache (hydrateECO) and run the job to completion.
func TestECORecoveryHydratesBase(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{Workers: 1})

	b := tinyBench("eco-recover", 0)
	baseJob, err := svc.Submit(b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baseJob.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	baseKey := baseJob.Key()

	// Block the eco job mid-run, then shut down with the grace period
	// already expired so it journals as pending.
	started := make(chan struct{})
	release := make(chan struct{})
	o := fastOpts()
	var once sync.Once
	o.Log = func(string, ...interface{}) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	ecoJob, err := svc.SubmitECO(baseKey, ecoDelta, o, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is provably mid-run, parked on the log hook
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.Shutdown(ctx)
	}()
	// Let the drain's job cancellation land before unparking the worker,
	// so the run aborts at the next pass boundary instead of sprinting to
	// completion.
	time.Sleep(300 * time.Millisecond)
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if ecoJob.State() != Canceled {
		t.Fatalf("eco job state after shutdown: %s", ecoJob.State())
	}

	svc2 := openDurable(t, dir, Config{Workers: 1})
	defer svc2.Close()
	if n := svc2.Stats().RecoveredJobs; n != 1 {
		t.Fatalf("RecoveredJobs = %d, want 1", n)
	}
	for _, j := range svc2.Jobs() {
		if j.Key() != ecoJob.Key() {
			continue
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("recovered eco job: %v", err)
		}
		if got := len(res.Tree.Arena().Sinks()); got != len(b.Sinks)-1 {
			t.Fatalf("recovered eco result has %d sinks, want %d", got, len(b.Sinks)-1)
		}
		return
	}
	t.Fatal("recovered service does not know the eco job")
}

func TestHTTPECO(t *testing.T) {
	ts, _ := testServer(t, 2)

	// Base synthesis over the wire.
	var baseWire JobWire
	resp := postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{
		BenchText: benchText(t, "eco-http", 0), Options: OptionsWire{MaxRounds: 1, Cycles: 1},
	})
	decode(t, resp, http.StatusAccepted, &baseWire)
	baseWire = pollDone(t, ts.URL, baseWire.ID)
	if baseWire.State != Done {
		t.Fatalf("base job state %s", baseWire.State)
	}

	// ECO against the finished base.
	var ecoWire JobWire
	resp = postJSON(t, ts.URL+"/api/v1/eco", ECORequest{Base: baseWire.Key, Delta: ecoDelta})
	decode(t, resp, http.StatusAccepted, &ecoWire)
	ecoWire = pollDone(t, ts.URL, ecoWire.ID)
	if ecoWire.State != Done {
		t.Fatalf("eco job state %s: %s", ecoWire.State, ecoWire.Error)
	}
	if ecoWire.Key == baseWire.Key {
		t.Fatal("eco job key equals base key over HTTP")
	}

	// Error surface: missing fields, unknown base, wrong method.
	resp = postJSON(t, ts.URL+"/api/v1/eco", ECORequest{Delta: ecoDelta})
	decode(t, resp, http.StatusBadRequest, nil)
	resp = postJSON(t, ts.URL+"/api/v1/eco", ECORequest{Base: "nope", Delta: ecoDelta})
	decode(t, resp, http.StatusNotFound, nil)
	getResp, err := http.Get(ts.URL + "/api/v1/eco")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, getResp, http.StatusMethodNotAllowed, nil)
}
