package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"contango/internal/bench"
)

func testServer(t *testing.T, workers int) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(Config{Workers: workers})
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.CancelAll()
		svc.Close()
	})
	return ts, svc
}

func benchText(t *testing.T, name string, variant int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := bench.Write(&buf, tinyBench(name, variant)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, wantCode int, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantCode, raw)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("bad JSON: %v: %s", err, raw)
		}
	}
}

func pollDone(t *testing.T, baseURL, id string) JobWire {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jw JobWire
		decode(t, resp, http.StatusOK, &jw)
		if jw.State.Finished() {
			return jw
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobWire{}
}

func TestHTTPJobRoundTrip(t *testing.T) {
	ts, _ := testServer(t, 2)

	// Submit an inline benchmark.
	req := SubmitRequest{
		BenchText: benchText(t, "http-tiny", 0),
		Options:   OptionsWire{Plan: constructionPlan},
	}
	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
	if jw.ID == "" || jw.Benchmark != "http-tiny" || jw.Sinks != 8 {
		t.Fatalf("bad job wire: %+v", jw)
	}

	done := pollDone(t, ts.URL, jw.ID)
	if done.State != Done {
		t.Fatalf("job finished as %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Final.TotalCapFF <= 0 {
		t.Fatalf("missing result payload: %+v", done.Result)
	}

	// Result endpoint.
	var rw ResultWire
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, &rw)
	if rw.Benchmark != "http-tiny" || len(rw.Stages) == 0 || rw.Runs <= 0 {
		t.Fatalf("bad result wire: %+v", rw)
	}

	// Progress log.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/log")
	if err != nil {
		t.Fatal(err)
	}
	var logs struct {
		Lines []string `json:"lines"`
	}
	decode(t, resp, http.StatusOK, &logs)
	if len(logs.Lines) == 0 {
		t.Error("no progress lines recorded")
	}

	// SVG rendering.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/svg")
	if err != nil {
		t.Fatal(err)
	}
	svg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "image/svg+xml" {
		t.Fatalf("svg: status %d type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(svg), "<svg") {
		t.Error("svg body missing <svg element")
	}

	// Server-sent events replay for a finished job: logs then a state event.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content-type %s", ct)
	}
	if !strings.Contains(string(events), "event: log") || !strings.Contains(string(events), "event: state") {
		t.Errorf("event stream missing log/state events:\n%s", events)
	}

	// Job listing and stats.
	resp, err = http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobWire
	decode(t, resp, http.StatusOK, &list)
	if len(list) != 1 {
		t.Errorf("listed %d jobs, want 1", len(list))
	}
	resp, err = http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	decode(t, resp, http.StatusOK, &st)
	if st.Completed < 1 || st.SimRuns <= 0 {
		t.Errorf("stats not accounting: %+v", st)
	}
}

func TestHTTPBatchSweepAndCache(t *testing.T) {
	ts, svc := testServer(t, 4)

	req := BatchRequest{
		BenchTexts: []string{benchText(t, "hb-0", 0), benchText(t, "hb-1", 1)},
		Options:    OptionsWire{Plan: constructionPlan},
		Sweep:      &Sweep{Gammas: []float64{0.1, 0.15}},
	}
	var out struct {
		Jobs []JobWire `json:"jobs"`
	}
	decode(t, postJSON(t, ts.URL+"/api/v1/batches", req), http.StatusAccepted, &out)
	if len(out.Jobs) != 4 { // 2 benches x 2 gammas
		t.Fatalf("batch produced %d jobs, want 4", len(out.Jobs))
	}
	for _, jw := range out.Jobs {
		pollDone(t, ts.URL, jw.ID)
	}
	simRuns := svc.Stats().SimRuns

	// The identical batch again: all four served from cache.
	decode(t, postJSON(t, ts.URL+"/api/v1/batches", req), http.StatusAccepted, &out)
	for _, jw := range out.Jobs {
		done := pollDone(t, ts.URL, jw.ID)
		if !done.CacheHit {
			t.Errorf("job %s not a cache hit on resubmission", jw.ID)
		}
	}
	if st := svc.Stats(); st.SimRuns != simRuns {
		t.Errorf("cached batch burned simulator runs: %d -> %d", simRuns, st.SimRuns)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := testServer(t, 1)

	// Unknown job.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusNotFound, nil)

	// Unknown benchmark name.
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{Bench: "not-a-bench"}),
		http.StatusBadRequest, nil)

	// Missing benchmark entirely.
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{}), http.StatusBadRequest, nil)

	// Malformed body.
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusBadRequest, nil)

	// Batch naming no benchmarks.
	decode(t, postJSON(t, ts.URL+"/api/v1/batches", BatchRequest{}), http.StatusBadRequest, nil)

	// Negative worker budget: refused, not run on every core past the
	// per-job budget.
	var apiErr apiError
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{
		BenchText: benchText(t, "http-negpar", 0),
		Options:   OptionsWire{Parallelism: -2},
	}), http.StatusBadRequest, &apiErr)
	if !strings.Contains(apiErr.Error, "parallelism") {
		t.Errorf("negative parallelism: error %q does not name it", apiErr.Error)
	}

	// Method checks.
	resp, err = http.Get(ts.URL + "/api/v1/batches")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusMethodNotAllowed, nil)

	// Benchmarks listing works.
	resp, err = http.Get(ts.URL + "/api/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	var names struct {
		Benchmarks []string `json:"benchmarks"`
	}
	decode(t, resp, http.StatusOK, &names)
	if len(names.Benchmarks) != 7 {
		t.Errorf("benchmarks = %d, want 7", len(names.Benchmarks))
	}

	// Health probe.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, nil)
}

func TestHTTPResultBeforeDone(t *testing.T) {
	ts, svc := testServer(t, 1)

	hold := make(chan struct{})
	defer close(hold)
	// Occupy the only worker so the HTTP-submitted job stays queued.
	blockOpts := fastOpts()
	blockOpts.Log = func(string, ...interface{}) {
		<-hold
	}
	if _, err := svc.Submit(tinyBench("holder", 0), blockOpts); err != nil {
		t.Fatal(err)
	}

	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{
		BenchText: benchText(t, "queued-job", 3),
		Options:   OptionsWire{Plan: "tbsz:1,twsz:1,twsn:1,bwsn:1,cycle(twsz:1,twsn:1,bwsn:1)x1"},
	}), http.StatusAccepted, &jw)

	// Result and SVG for an unfinished job: 409.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusConflict, nil)
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/svg")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusConflict, nil)

	// Cancel it over HTTP.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+jw.ID, nil)
	resp, err = http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var canceled JobWire
	decode(t, resp, http.StatusOK, &canceled)
	if canceled.State != Canceled {
		t.Errorf("state after DELETE = %s, want canceled", canceled.State)
	}
}

// TestHTTPCustomPlanWithPassEvents is the API acceptance path: a custom
// plan spec submitted over HTTP runs end to end, its stage list reflects
// the plan, and the SSE stream carries dedicated per-pass "pass" events.
func TestHTTPCustomPlanWithPassEvents(t *testing.T) {
	ts, _ := testServer(t, 1)

	req := SubmitRequest{
		BenchText: benchText(t, "http-plan", 0),
		Options:   OptionsWire{Plan: "tbsz:1,twsz:1"},
	}
	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
	done := pollDone(t, ts.URL, jw.ID)
	if done.State != Done {
		t.Fatalf("job finished as %s (%s)", done.State, done.Error)
	}
	names := make([]string, len(done.Result.Stages))
	for i, s := range done.Result.Stages {
		names[i] = s.Name
	}
	if got := strings.Join(names, ","); got != "INITIAL,TBSZ,TWSZ" {
		t.Errorf("stages over the wire = %s, want INITIAL,TBSZ,TWSZ", got)
	}

	// The finished job replays its log over SSE; per-pass progress lines
	// arrive as "pass" events, ordinary flow lines stay "log".
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "event: pass") {
		t.Errorf("SSE stream carries no pass events:\n%s", body)
	}
	if !strings.Contains(body, "event: log") {
		t.Errorf("SSE stream lost its log events:\n%s", body)
	}
	if !strings.Contains(body, "event: state") {
		t.Errorf("SSE stream missing the terminal state event:\n%s", body)
	}
}

func TestHTTPInvalidPlanRejected(t *testing.T) {
	ts, _ := testServer(t, 1)
	for _, tc := range []struct{ plan, want string }{
		{"cycle(twsz", "cycle"},
		// Construction after the cascade is refused at submit time.
		{"zst,legalize,buffer,polarity,tbsz,polarity", "polarity"},
	} {
		req := SubmitRequest{
			BenchText: benchText(t, "http-badplan", 0),
			Options:   OptionsWire{Plan: tc.plan},
		}
		var apiErr apiError
		decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusBadRequest, &apiErr)
		if !strings.Contains(apiErr.Error, tc.want) {
			t.Errorf("plan %q: error %q does not mention the bad spec", tc.plan, apiErr.Error)
		}
	}
}

// TestHTTPRetiredOptionFieldsRejected: the plan alone shapes a run, so a
// body naming a retired option field is a 400 that names the field, not a
// job that silently runs a different cascade.
func TestHTTPRetiredOptionFieldsRejected(t *testing.T) {
	ts, _ := testServer(t, 1)
	text := strconv.Quote(benchText(t, "http-retired", 0))
	for _, tc := range []struct{ path, body, field string }{
		{"/api/v1/jobs", `{"bench_text":` + text + `,"options":{"max_rounds":2}}`, "max_rounds"},
		{"/api/v1/jobs", `{"bench_text":` + text + `,"options":{"cycles":-1}}`, "cycles"},
		{"/api/v1/jobs", `{"bench_text":` + text + `,"options":{"skip_stages":["tbsz"]}}`, "skip_stages"},
		{"/api/v1/jobs", `{"bench_text":` + text + `,"options":{"full_eval":true}}`, "full_eval"},
		{"/api/v1/batches", `{"bench_texts":[` + text + `],"sweep":{"max_rounds":[4,8]}}`, "max_rounds"},
		{"/api/v1/batches", `{"bench_texts":[` + text + `],"options":{"cycles":1}}`, "cycles"},
		{"/api/v1/eco", `{"base":"k","delta":"remove a","options":{"skip_stages":["bwsn"]}}`, "skip_stages"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		decode(t, resp, http.StatusBadRequest, &apiErr)
		if !strings.Contains(apiErr.Error, strconv.Quote(tc.field)) {
			t.Errorf("%s with %s: error %q does not name the field", tc.path, tc.field, apiErr.Error)
		}
	}
}

// TestHTTPNonFiniteCornerSigmaRejected: a Monte Carlo spec with a NaN or
// infinite sigma is a bad request, not a job that reports NaN metrics.
func TestHTTPNonFiniteCornerSigmaRejected(t *testing.T) {
	ts, _ := testServer(t, 1)
	for _, spec := range []string{"mc:2:1:NaN", "mc:2:1:0.05:+Inf"} {
		req := SubmitRequest{
			BenchText: benchText(t, "http-nancorner", 0),
			Options:   OptionsWire{Corners: spec, FastSim: true},
		}
		var apiErr apiError
		decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusBadRequest, &apiErr)
		if !strings.Contains(apiErr.Error, "sigma") {
			t.Errorf("corners %q: error %q does not name the bad sigma", spec, apiErr.Error)
		}
	}
}

// durableTestServer is testServer with a durable store attached.
func durableTestServer(t *testing.T, workers int) (*httptest.Server, *Service, string) {
	t.Helper()
	dir := t.TempDir()
	svc, err := Open(Config{Workers: workers, DataDir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.CancelAll()
		svc.Close()
	})
	return ts, svc, dir
}

func TestHTTPArtifacts(t *testing.T) {
	ts, _, _ := durableTestServer(t, 1)

	req := SubmitRequest{
		BenchText: benchText(t, "artifacty", 0),
		Options:   OptionsWire{Plan: constructionPlan},
	}
	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
	done := pollDone(t, ts.URL, jw.ID)
	if done.State != Done {
		t.Fatalf("job finished as %s (%s)", done.State, done.Error)
	}

	// List: result, log and the job spec are persisted by completion.
	var list struct {
		Key       string         `json:"key"`
		Durable   bool           `json:"durable"`
		Artifacts []ArtifactInfo `json:"artifacts"`
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, &list)
	if !list.Durable || list.Key != jw.Key {
		t.Fatalf("bad artifact listing header: %+v", list)
	}
	have := map[string]int64{}
	for _, a := range list.Artifacts {
		have[a.Name] = a.Size
	}
	for _, name := range []string{"result", "log", "job"} {
		if have[name] <= 0 {
			t.Errorf("artifact %q missing or empty in %v", name, list.Artifacts)
		}
	}
	if _, ok := have["svg"]; ok {
		t.Error("svg artifact exists before any rendering")
	}

	// The result artifact is the persisted codec blob.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/result")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("result artifact: status %d type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(blob), `"version":1`) {
		t.Error("result artifact is not a codec envelope")
	}

	// The log artifact is plain text with the job's progress lines.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/log")
	if err != nil {
		t.Fatal(err)
	}
	logTxt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(logTxt), "artifacty") {
		t.Errorf("log artifact: status %d body %.80s", resp.StatusCode, logTxt)
	}

	// Rendering the SVG persists it; the artifact then matches the route.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/svg")
	if err != nil {
		t.Fatal(err)
	}
	svgRoute, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/svg")
	if err != nil {
		t.Fatal(err)
	}
	svgArt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(svgRoute, svgArt) {
		t.Error("persisted svg artifact does not match the rendered route")
	}

	// Unknown artifact names are 404 over HTTP…
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/nope")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusNotFound, nil)
}

// TestArtifactNameValidation exercises the name check directly — an HTTP
// request can't carry "../" (clients and ServeMux normalize dot segments
// away), but the raw-path and library surfaces can.
func TestArtifactNameValidation(t *testing.T) {
	_, svc, _ := durableTestServer(t, 1)
	key := strings.Repeat("ab", 32)
	for _, name := range []string{"../x", "..", "result/../job", "passwd", "RESULT", ""} {
		if _, err := svc.Artifact(key, name); err == nil {
			t.Errorf("Artifact accepted invalid name %q", name)
		}
	}
	// Valid names on a missing key are clean not-found errors.
	if _, err := svc.Artifact(key, "result"); err == nil {
		t.Error("missing artifact should error")
	}
}

func TestHTTPArtifactsWithoutStore(t *testing.T) {
	ts, _ := testServer(t, 1)
	req := SubmitRequest{
		BenchText: benchText(t, "nostore", 0),
		Options:   OptionsWire{Plan: constructionPlan},
	}
	var jw JobWire
	decode(t, postJSON(t, ts.URL+"/api/v1/jobs", req), http.StatusAccepted, &jw)
	pollDone(t, ts.URL, jw.ID)

	var list struct {
		Durable   bool           `json:"durable"`
		Artifacts []ArtifactInfo `json:"artifacts"`
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, &list)
	if list.Durable || len(list.Artifacts) != 0 {
		t.Errorf("in-memory server lists artifacts: %+v", list)
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + jw.ID + "/artifacts/result")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusNotFound, nil)
}
