package contango

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestBenchmarkRegistry(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 7 {
		t.Fatalf("suite size %d want 7", len(names))
	}
	for _, n := range names {
		b, err := Benchmark(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(b.Sinks) == 0 {
			t.Fatalf("%s: no sinks", n)
		}
	}
	if _, err := Benchmark("not-a-benchmark"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestBenchmarkRoundTripThroughPublicAPI(t *testing.T) {
	b, _ := Benchmark("ispd09f22")
	var buf bytes.Buffer
	if err := WriteBenchmark(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchmark(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.Name || len(got.Sinks) != len(b.Sinks) {
		t.Error("round trip mismatch")
	}
}

func TestPublicSynthesizeAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in short mode")
	}
	b, _ := Benchmark("ispd09f22")
	// Keep the sink set small for test runtime.
	b.Sinks = b.Sinks[:24]
	res, err := Synthesize(b, Options{Plan: "tbsz:3,twsz:3,twsn:3,bwsn:3,cycle(twsz:3,twsn:3,bwsn:3)x1"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Skew >= res.Stages[0].Metrics.Skew+1e-9 {
		t.Errorf("no improvement: %v -> %v", res.Stages[0].Metrics.Skew, res.Final.Skew)
	}
	var svg bytes.Buffer
	if err := RenderSVG(&svg, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "</svg>") {
		t.Error("invalid SVG output")
	}

	base, err := SynthesizeBaseline(b, BaselineGreedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Final.Skew < res.Final.Skew {
		t.Errorf("greedy baseline (%v) beat the full flow (%v)", base.Final.Skew, res.Final.Skew)
	}
}

func TestServicePublicSurface(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 2})
	defer svc.Close()

	b, _ := Benchmark("ispd09f22")
	b.Sinks = b.Sinks[:10]
	opts := Options{Plan: "zst,legalize,buffer,polarity"}
	jobs, err := svc.SubmitBatch([]SynthesisRequest{{Bench: b, Opts: opts}, {Bench: b, Opts: opts}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := WaitJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0] == nil {
		t.Fatalf("results = %v", results)
	}
	// The two identical requests deduped: either coalesced onto one job,
	// or (if the first finished between the submits) served from cache.
	if jobs[0] != jobs[1] && !jobs[1].CacheHit() {
		t.Error("identical batch entries should coalesce or hit the cache")
	}
	var st ServiceStats = svc.Stats()
	if st.Submitted != 2 || st.Coalesced+st.CacheHits != 1 {
		t.Errorf("dedup accounting off: %+v", st)
	}
}

func TestSynthesizeContextPublic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := Benchmark("ispd09f22")
	if _, err := SynthesizeContext(ctx, b, Options{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPlanPublicSurface(t *testing.T) {
	names := PlanNames()
	if len(names) == 0 || names[0] != "paper" {
		t.Fatalf("PlanNames() = %v, want paper first", names)
	}
	for _, n := range names {
		if err := ValidatePlan(n); err != nil {
			t.Errorf("built-in plan %s invalid: %v", n, err)
		}
	}
	if err := ValidatePlan("tbsz:2,cycle(twsz,twsn)x2"); err != nil {
		t.Errorf("custom spec rejected: %v", err)
	}
	if err := ValidatePlan("cycle(twsz"); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestDurablePublicSurface(t *testing.T) {
	dir := t.TempDir()
	b, _ := Benchmark("ispd09f22")
	b.Sinks = b.Sinks[:10]
	opts := Options{Plan: "zst,legalize,buffer,polarity"}

	svc, err := OpenService(ServiceConfig{Workers: 1, DataDir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// The result codec round-trips through the public surface.
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Final, res.Final) || back.Runs != res.Runs {
		t.Error("public codec round-trip drifted")
	}

	// A reopened service serves the finished job from disk.
	svc2, err := OpenService(ServiceConfig{Workers: 1, DataDir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	b2, _ := Benchmark("ispd09f22")
	b2.Sinks = b2.Sinks[:10]
	j2, err := svc2.Submit(b2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() || j2.CacheTier() != "disk" {
		t.Errorf("restart not served from disk: hit=%v tier=%q", j2.CacheHit(), j2.CacheTier())
	}
}
