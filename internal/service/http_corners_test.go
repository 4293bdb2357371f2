package service

import (
	"context"
	"net/http"
	"testing"

	"contango/internal/corners"
)

// TestHTTPCornersListing: GET /api/v1/corners describes the built-in sets
// with instantiated corners and roles.
func TestHTTPCornersListing(t *testing.T) {
	ts, _ := testServer(t, 1)
	resp, err := http.Get(ts.URL + "/api/v1/corners")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Default string         `json:"default"`
		Corners []corners.Info `json:"corners"`
	}
	decode(t, resp, http.StatusOK, &out)
	if out.Default != corners.DefaultName {
		t.Errorf("default=%q want %q", out.Default, corners.DefaultName)
	}
	if len(out.Corners) != 3 {
		t.Fatalf("listed sets=%d want 3", len(out.Corners))
	}
	for _, in := range out.Corners {
		if len(in.Corners) == 0 {
			t.Errorf("set %q listed without instantiated corners", in.Name)
		}
	}
}

// TestHTTPSubmitCorners: a custom corner set flows through submission to a
// per-corner breakdown in the finished result; a bad spec is a 400.
func TestHTTPSubmitCorners(t *testing.T) {
	ts, _ := testServer(t, 1)

	resp := postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{
		BenchText: benchText(t, "corner-job", 1),
		Options:   OptionsWire{Plan: constructionPlan, Corners: "pvt5"},
	})
	var jw JobWire
	decode(t, resp, http.StatusAccepted, &jw)
	done := pollDone(t, ts.URL, jw.ID)
	if done.State != Done {
		t.Fatalf("job state %s: %s", done.State, done.Error)
	}
	final := done.Result.Final
	if len(final.PerCorner) != 5 {
		t.Fatalf("wire per-corner rows=%d want 5: %+v", len(final.PerCorner), final)
	}
	if final.CLRSpreadPs <= 0 || final.WorstCorner == "" {
		t.Errorf("spread/attribution missing on the wire: %+v", final)
	}

	// Invalid spec: rejected before queueing.
	resp = postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{
		BenchText: benchText(t, "corner-job", 1),
		Options:   OptionsWire{Corners: "mc:zero:1"},
	})
	var apiErr apiError
	decode(t, resp, http.StatusBadRequest, &apiErr)
	if apiErr.Error == "" {
		t.Error("400 carried no error body")
	}
}

// TestServiceDefaultCorners: Config.DefaultCorners applies to submissions
// that leave the spec empty and participates in the content key.
func TestServiceDefaultCorners(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultCorners: "pvt5"})
	t.Cleanup(func() { svc.CancelAll(); svc.Close() })
	b := tinyBench("default-corners", 1)
	opts := OptionsWire{Plan: constructionPlan}.Options()
	j, err := svc.Submit(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantOpts := opts
	wantOpts.Corners = "pvt5"
	if j.Key() != JobKey(b, wantOpts) {
		t.Error("default corner set not folded into the job key")
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final.PerCorner) != 5 {
		t.Errorf("default corner set not applied: %d per-corner rows", len(res.Final.PerCorner))
	}
}
