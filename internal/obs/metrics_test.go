package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	depth := 3.0
	r.GaugeFunc("test_depth", "depth", func() float64 { return depth })
	depth = 1.5
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	if got := samples["test_depth"]; got != 1.5 {
		t.Errorf("gauge = %g, want 1.5 (read at exposition)", got)
	}
	// Idempotent re-registration returns the same handle.
	if r.Counter("test_ops_total", "ops") != c {
		t.Error("re-registering a counter returned a new handle")
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(3)
	h.Observe(1)
	cv.With("x").Inc()
	hv.With("x").Observe(1)
	if c.Value() != 0 || h.Count() != 0 || cv.Total() != 0 || hv.With("x").Count() != 0 {
		t.Error("nil metrics should read zero")
	}
	var tr *Trace
	tr.Root().Child("x").End()
	tr.Finish()
	if tr.Top(5) != nil {
		t.Error("nil trace summary should be nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_dur_seconds", "durations", ExpBuckets(0.001, 10, 3)) // 1ms, 10ms, 100ms
	for _, v := range []float64{0.0005, 0.001, 0.05, 0.2, 3} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	// Cumulative buckets: <=1ms: 2 (0.0005 and the boundary 0.001), <=10ms: 2, <=100ms: 3, +Inf: 5.
	checks := map[string]float64{
		`test_dur_seconds_bucket{le="0.001"}`: 2,
		`test_dur_seconds_bucket{le="0.01"}`:  2,
		`test_dur_seconds_bucket{le="0.1"}`:   3,
		`test_dur_seconds_bucket{le="+Inf"}`:  5,
		`test_dur_seconds_count`:              5,
	}
	for k, want := range checks {
		if got := samples[k]; got != want {
			t.Errorf("%s = %g, want %g", k, got, want)
		}
	}
	if sum := samples["test_dur_seconds_sum"]; sum < 3.25 || sum > 3.26 {
		t.Errorf("sum = %g, want ~3.2515", sum)
	}
}

func TestVecLabelsAndEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_jobs_total", "jobs", "plan", "corners")
	cv.With("paper", "ispd09").Add(3)
	cv.With(`we"ird\plan`, "mc:64:1").Inc()
	if cv.Total() != 4 {
		t.Errorf("vec total = %d, want 4", cv.Total())
	}
	hv := r.HistogramVec("test_pass_seconds", "pass durations", ExpBuckets(0.01, 2, 2), "pass")
	hv.With("tbsz").Observe(0.02)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if got := samples[`test_jobs_total{corners="ispd09",plan="paper"}`]; got != 3 {
		t.Errorf("labeled counter = %g, want 3 in:\n%s", got, text)
	}
	if got := samples[`test_pass_seconds_count{pass="tbsz"}`]; got != 1 {
		t.Errorf("labeled histogram count = %g, want 1 in:\n%s", got, text)
	}
	if !strings.Contains(text, `plan="we\"ird\\plan"`) {
		t.Errorf("label value not escaped:\n%s", text)
	}
	// HELP/TYPE headers precede samples for every family.
	if !strings.Contains(text, "# HELP test_jobs_total jobs\n# TYPE test_jobs_total counter") {
		t.Errorf("missing HELP/TYPE headers:\n%s", text)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x", "x")
	defer func() {
		if recover() == nil {
			t.Error("registering test_x as a gauge should panic")
		}
	}()
	r.GaugeFunc("test_x", "x", func() float64 { return 0 })
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_par_total", "par")
	h := r.Histogram("test_par_seconds", "par", ExpBuckets(0.001, 2, 4))
	cv := r.CounterVec("test_par_vec_total", "par", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.002)
				cv.With("a").Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || cv.Total() != 8000 {
		t.Errorf("lost updates: counter=%d hist=%d vec=%d", c.Value(), h.Count(), cv.Total())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ok_total", "ok").Inc()
	RegisterRuntimeMetrics(r)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != TextContentType {
		t.Errorf("content-type = %q", ct)
	}
	samples, err := ParseText(resp.Body)
	if err != nil {
		t.Fatalf("handler output does not parse: %v", err)
	}
	if samples["test_ok_total"] != 1 {
		t.Error("counter missing from scrape")
	}
	if samples["go_goroutines"] <= 0 {
		t.Error("runtime gauges missing from scrape")
	}

	post, err := http.Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", post.StatusCode)
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		`unterminated{a="x} 1` + "\n",
		`bad-name 3` + "\n",
		`m{a=unquoted} 1` + "\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}
