package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contango/internal/core"
	"contango/internal/obs"
)

// scrapeMetrics fetches /metrics and parses the exposition, failing the
// test on transport errors, a bad status, or a format violation.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("GET /metrics: content type %q, want %q", ct, obs.TextContentType)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

// TestHTTPMetricsAgreeWithStats drives a mixed workload (one executed job,
// one memory-tier cache hit, one distinct second job) and then checks that
// the Prometheus exposition parses and that every counter it reports
// agrees with the /api/v1/stats snapshot — the two surfaces render the
// same registers.
func TestHTTPMetricsAgreeWithStats(t *testing.T) {
	ts, _ := testServer(t, 2)

	opts := OptionsWire{Plan: constructionPlan}
	submit := func(variant int) JobWire {
		var jw JobWire
		req := SubmitRequest{BenchText: benchText(t, "obs-mix", variant), Options: opts}
		decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
		return pollDone(t, ts.URL, jw.ID)
	}
	if jw := submit(0); jw.State != Done {
		t.Fatalf("job finished as %s (%s)", jw.State, jw.Error)
	}
	if jw := submit(1); jw.State != Done {
		t.Fatalf("job finished as %s (%s)", jw.State, jw.Error)
	}
	// Identical resubmission: a memory-tier cache hit.
	hit := submit(0)
	if !hit.CacheHit || hit.CacheTier != "memory" {
		t.Fatalf("resubmission was not a memory cache hit: %+v", hit)
	}

	var st Stats
	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, &st)
	samples := scrapeMetrics(t, ts.URL)

	hits := samples[`contango_cache_hits_total{tier="memory"}`] + samples[`contango_cache_hits_total{tier="disk"}`]
	checks := []struct {
		name string
		got  float64
		want int
	}{
		{"contango_jobs_submitted_total", samples["contango_jobs_submitted_total"], st.Submitted},
		{"contango_jobs_coalesced_total", samples["contango_jobs_coalesced_total"], st.Coalesced},
		{"contango_cache_hits_total", hits, st.CacheHits},
		{`contango_cache_hits_total{tier="disk"}`, samples[`contango_cache_hits_total{tier="disk"}`], st.DiskHits},
		{"contango_cache_misses_total", samples["contango_cache_misses_total"], st.CacheMisses},
		{"contango_cache_evictions_total", samples["contango_cache_evictions_total"], st.CacheEvictions},
		{"contango_sim_runs_total", samples["contango_sim_runs_total"], st.SimRuns},
		{"contango_jobs_recovered_total", samples["contango_jobs_recovered_total"], st.RecoveredJobs},
		{"contango_queue_depth", samples["contango_queue_depth"], st.QueueLen},
		{"contango_jobs", samples["contango_jobs"], st.Jobs},
		{"contango_cache_entries", samples["contango_cache_entries"], st.CacheEntries},
		{"contango_workers", samples["contango_workers"], st.Workers},
	}
	for _, c := range checks {
		if int(c.got) != c.want {
			t.Errorf("%s = %v, stats say %d", c.name, c.got, c.want)
		}
	}
	// The per-(plan,corners) completion counters sum to the stats total.
	var completed float64
	for k, v := range samples {
		if strings.HasPrefix(k, "contango_jobs_completed_total{") {
			completed += v
		}
	}
	if int(completed) != st.Completed {
		t.Errorf("sum of contango_jobs_completed_total children = %v, stats say %d", completed, st.Completed)
	}
	if st.Completed != 3 || st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Errorf("workload counters off: %+v", st)
	}

	// The flow instrumentation observed executed passes.
	var passObs float64
	for k, v := range samples {
		if strings.HasPrefix(k, "contango_pass_duration_seconds_count{") {
			passObs += v
		}
	}
	if passObs == 0 {
		t.Error("no contango_pass_duration_seconds observations after executed jobs")
	}
	if samples["contango_flow_stages_total"] == 0 {
		t.Error("contango_flow_stages_total = 0 after executed jobs")
	}
	// Runtime gauges ride along.
	if samples["go_goroutines"] <= 0 {
		t.Error("go_goroutines gauge missing")
	}
}

// TestHTTPMethodNotAllowed pins the 405 behavior of the GET-only surfaces:
// known endpoints with a wrong method answer 405, not 404.
func TestHTTPMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t, 1)

	req := SubmitRequest{
		BenchText: benchText(t, "methods", 0),
		Options:   OptionsWire{Plan: constructionPlan},
	}
	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
	pollDone(t, ts.URL, jw.ID)

	for _, url := range []string{
		ts.URL + "/metrics",
		ts.URL + "/healthz",
		ts.URL + "/api/v1/jobs/" + jw.ID + "/result",
		ts.URL + "/api/v1/jobs/" + jw.ID + "/log",
		ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts",
		ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/trace",
		ts.URL + "/api/v1/jobs/" + jw.ID + "/events",
	} {
		resp, err := http.Post(url, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", url, resp.StatusCode)
		}
	}
	// Unknown sub-endpoints stay 404.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown sub-endpoint: status %d, want 404", resp.StatusCode)
	}
}

// TestLogEventType pins the SSE routing rule: pipeline progress lines
// become "pass" events, everything else "log".
func TestLogEventType(t *testing.T) {
	if got := logEventType(core.ProgressPrefix + "1/5 dme: start"); got != "pass" {
		t.Errorf("progress line routed to %q, want pass", got)
	}
	if got := logEventType("tiny: [DME] skew=0.1ps"); got != "log" {
		t.Errorf("plain line routed to %q, want log", got)
	}
	if got := logEventType(""); got != "log" {
		t.Errorf("empty line routed to %q, want log", got)
	}
}

// TestSSEPassEvents asserts the event stream of a finished job replays its
// per-pass progress lines as "pass" events and ends with a "state" event.
func TestSSEPassEvents(t *testing.T) {
	ts, _ := testServer(t, 1)

	req := SubmitRequest{
		BenchText: benchText(t, "sse-pass", 0),
		Options:   OptionsWire{Plan: constructionPlan},
	}
	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
	pollDone(t, ts.URL, jw.ID)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body) // job is finished: the stream terminates
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "event: pass\n") {
		t.Errorf("stream has no pass events:\n%s", body)
	}
	if !strings.Contains(body, "event: log\n") {
		t.Errorf("stream has no log events:\n%s", body)
	}
	if !strings.Contains(body, "event: state\n") {
		t.Errorf("stream has no terminal state event:\n%s", body)
	}
	// Every per-pass progress line rode the pass type, never log.
	for _, frame := range strings.Split(body, "\n\n") {
		if strings.Contains(frame, "data: "+core.ProgressPrefix) && !strings.Contains(frame, "event: pass") {
			t.Errorf("progress frame not typed as pass:\n%s", frame)
		}
	}
}

// chromeTraceWire mirrors the Chrome trace-event JSON shape for decoding.
type chromeTraceWire struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestHTTPTraceArtifact round-trips an executed job's trace artifact:
// valid Chrome trace JSON whose spans cover the queue wait, the executed
// passes and persistence, nested inside the root with monotonic
// timestamps.
func TestHTTPTraceArtifact(t *testing.T) {
	ts, _, _ := durableTestServer(t, 1)

	req := SubmitRequest{
		BenchText: benchText(t, "tracey", 0),
		Options:   OptionsWire{Plan: constructionPlan},
	}
	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
	done := pollDone(t, ts.URL, jw.ID)
	if done.State != Done {
		t.Fatalf("job finished as %s (%s)", done.State, done.Error)
	}
	if len(done.TraceSummary) == 0 {
		t.Error("finished JobWire carries no trace summary")
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace artifact: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type %q, want application/json", ct)
	}
	var tr chromeTraceWire
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	if len(tr.TraceEvents) < 3 {
		t.Fatalf("trace has %d events, want at least root+queue_wait+pass", len(tr.TraceEvents))
	}

	root := tr.TraceEvents[0]
	if root.Name != jw.ID || root.Ph != "X" || root.Args["benchmark"] != "tracey" {
		t.Errorf("bad root span: %+v", root)
	}
	names := map[string]bool{}
	passSpans := 0
	for _, ev := range tr.TraceEvents {
		names[ev.Name] = true
		if strings.HasPrefix(ev.Name, "pass:") {
			passSpans++
		}
		if ev.Ph != "X" || ev.Cat != "contango" {
			t.Errorf("event %q: ph=%q cat=%q, want X/contango", ev.Name, ev.Ph, ev.Cat)
		}
		// Nesting is monotonic: every span starts at or after the root and
		// ends within it.
		if ev.Ts < root.Ts || ev.Ts+ev.Dur > root.Ts+root.Dur+1 { // +1µs float slack
			t.Errorf("span %q [%v, %v] escapes root [%v, %v]",
				ev.Name, ev.Ts, ev.Ts+ev.Dur, root.Ts, root.Ts+root.Dur)
		}
		if ev.Dur < 0 {
			t.Errorf("span %q has negative duration %v", ev.Name, ev.Dur)
		}
	}
	for _, want := range []string{"cache_lookup", "queue_wait", "persist"} {
		if !names[want] {
			t.Errorf("trace lacks a %q span; have %v", want, names)
		}
	}
	if passSpans == 0 {
		t.Errorf("trace has no executed-pass spans; have %v", names)
	}

	// The artifact listing includes the trace.
	var list struct {
		Artifacts []ArtifactInfo `json:"artifacts"`
	}
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp2, http.StatusOK, &list)
	found := false
	for _, a := range list.Artifacts {
		if a.Name == "trace" && a.Size > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("trace missing from artifact listing: %+v", list.Artifacts)
	}
}

// TestHTTPTraceInMemoryFallback: on a service without a durable store the
// trace endpoint still serves the finished job's in-memory span tree.
func TestHTTPTraceInMemoryFallback(t *testing.T) {
	ts, _ := testServer(t, 1)

	req := SubmitRequest{
		BenchText: benchText(t, "memtrace", 0),
		Options:   OptionsWire{Plan: constructionPlan},
	}
	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
	pollDone(t, ts.URL, jw.ID)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace on in-memory service: status %d", resp.StatusCode)
	}
	var tr chromeTraceWire
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("in-memory trace is not valid Chrome trace JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 || tr.TraceEvents[0].Name != jw.ID {
		t.Fatalf("bad in-memory trace: %+v", tr.TraceEvents)
	}
	// Other artifacts still 404 without a store (pinned by
	// TestHTTPArtifactsWithoutStore; re-asserted here against regressions
	// in the trace fallback path).
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("GET result artifact without store: status %d, want 404", resp2.StatusCode)
	}
}

// TestHTTPHandlerPanicRecovered: a panicking handler answers a JSON 500,
// counts on contango_http_panics_total and leaves the server serving; a
// deliberate http.ErrAbortHandler still aborts the response uncounted.
func TestHTTPHandlerPanicRecovered(t *testing.T) {
	svc := New(Config{Workers: 1})
	srv := NewServer(svc)
	srv.mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("handler bug") })
	srv.mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	resp, err := http.Get(ts.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	var body apiError
	decode(t, resp, http.StatusInternalServerError, &body)
	if !strings.Contains(body.Error, "/panic") {
		t.Errorf("error body %q does not name the path", body.Error)
	}
	if resp, err := http.Get(ts.URL + "/abort"); err == nil {
		resp.Body.Close()
		t.Error("an aborted handler still answered")
	}
	if got := scrapeMetrics(t, ts.URL)["contango_http_panics_total"]; got != 1 {
		t.Errorf("contango_http_panics_total = %v, want 1", got)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, &map[string]string{})
}
