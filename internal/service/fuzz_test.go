package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"contango/internal/sched"
)

// submitPaths are the endpoints that turn a request body into jobs.
var submitPaths = []string{"/api/v1/jobs", "/api/v1/batches", "/api/v1/eco"}

// FuzzSubmitHandlers: whatever body is POSTed to the three submit
// endpoints, each answers 2xx, or 4xx with a JSON error body; never 5xx,
// and no handler panics (contango_http_panics_total stays 0). The seed
// corpus under testdata/fuzz/FuzzSubmitHandlers holds the bodies of the
// HTTP and ECO tests, the ECO ones against a base the target finishes
// before fuzzing. The target then holds the service's only worker slot
// itself, so an accepted job waits in the queue until the input's
// requests are done and is then canceled: no input runs a synthesis.
func FuzzSubmitHandlers(f *testing.F) {
	svc := New(Config{Workers: 1})
	base, err := svc.Submit(tinyBench("eco-http", 0), fastOpts())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := base.Wait(context.Background()); err != nil {
		f.Fatal(err)
	}
	hold, err := svc.pool.Enqueue(sched.Claim{Label: "fuzz-hold"})
	if err != nil {
		f.Fatal(err)
	}
	if err := svc.pool.Await(hold, nil); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		svc.CancelAll()
		svc.pool.Release(hold)
		svc.Close()
	})
	srv := NewServer(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		var accepted []JobWire
		defer func() {
			for _, jw := range accepted {
				if j, ok := svc.Job(jw.ID); ok {
					j.Cancel()
				}
			}
		}()
		for _, path := range submitPaths {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch code := rec.Code; {
			case code >= 200 && code < 300:
				var batch struct {
					Jobs []JobWire `json:"jobs"`
				}
				var one JobWire
				raw := rec.Body.Bytes()
				if json.Unmarshal(raw, &batch) == nil && len(batch.Jobs) > 0 {
					accepted = append(accepted, batch.Jobs...)
				} else if err := json.Unmarshal(raw, &one); err == nil && one.ID != "" {
					accepted = append(accepted, one)
				} else {
					t.Fatalf("POST %s: %d without jobs: %q", path, code, raw)
				}
			case code >= 400 && code < 500:
				var e apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("POST %s: %d without a JSON error: %q", path, code, rec.Body.Bytes())
				}
			default:
				t.Fatalf("POST %s: status %d: %s", path, code, rec.Body.Bytes())
			}
		}
		if n := svc.metrics.httpPanics.Value(); n != 0 {
			t.Fatalf("%d handler panics", n)
		}
	})
}
