package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/corners"
	"contango/internal/sched"
	"contango/internal/store"
	"contango/internal/tech"
)

// Server is the contangod HTTP front end over a Service.
//
//	POST   /api/v1/jobs          submit one job (SubmitRequest) -> JobWire
//	GET    /api/v1/jobs          list jobs -> []JobWire
//	POST   /api/v1/batches       submit a batch (BatchRequest) -> {jobs: []JobWire}
//	POST   /api/v1/eco           incremental re-synthesis (ECORequest) -> JobWire
//	GET    /api/v1/jobs/{id}         job status -> JobWire
//	DELETE /api/v1/jobs/{id}         cancel -> JobWire
//	GET    /api/v1/jobs/{id}/result  finished result -> ResultWire
//	GET    /api/v1/jobs/{id}/log     buffered progress lines -> {lines: []string}
//	GET    /api/v1/jobs/{id}/svg     rendered clock tree (image/svg+xml)
//	GET    /api/v1/jobs/{id}/artifacts        persisted artifacts -> {artifacts: [{name,size}]}
//	GET    /api/v1/jobs/{id}/artifacts/{name} one artifact blob (result|log|svg|job|trace)
//	GET    /api/v1/jobs/{id}/events  server-sent progress events
//	GET    /api/v1/benchmarks    named benchmarks -> {benchmarks: []string}
//	GET    /api/v1/corners       built-in PVT corner sets -> {corners: []corners.Info}
//	GET    /api/v1/queue         scheduler introspection -> QueueWire
//	GET    /api/v1/stats         service counters -> Stats
//	GET    /metrics              Prometheus text exposition of the same counters
//	GET    /healthz              liveness probe
//
// A handler panic answers 500 with a JSON error and counts on
// contango_http_panics_total; the server keeps serving.
type Server struct {
	svc *Service
	mux *http.ServeMux
}

// NewServer wraps a Service in the contangod HTTP API.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/api/v1/batches", s.handleBatches)
	s.mux.HandleFunc("/api/v1/eco", s.handleECO)
	s.mux.HandleFunc("/api/v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("/api/v1/corners", s.handleCorners)
	s.mux.HandleFunc("/api/v1/queue", s.handleQueue)
	s.mux.HandleFunc("/api/v1/stats", s.handleStats)
	s.mux.Handle("/metrics", svc.MetricsRegistry().Handler())
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer s.recoverPanic(w, r)
	s.mux.ServeHTTP(w, r)
}

// recoverPanic, deferred around a handler, turns its panic into a JSON
// 500, counts it and logs it with its stack, instead of letting net/http
// drop the connection. http.ErrAbortHandler, the deliberate way to abort
// a response, passes through.
func (s *Server) recoverPanic(w http.ResponseWriter, r *http.Request) {
	v := recover()
	if v == nil {
		return
	}
	if v == http.ErrAbortHandler {
		panic(v)
	}
	s.svc.metrics.httpPanics.Inc()
	if l := s.svc.cfg.Logger; l != nil {
		l.Error("http handler panic", "method", r.Method, "path", r.URL.Path,
			"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
	}
	writeError(w, http.StatusInternalServerError, "internal error serving %s %s", r.Method, r.URL.Path)
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a submission body into v, answering 400 on failure.
// Unknown fields are rejected, so a misspelled or retired option (say
// "max_rounds", now a plan step's ":N" budget) names itself in the error
// instead of silently running a different cascade.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		jobs := s.svc.Jobs()
		out := make([]*JobWire, len(jobs))
		for i, j := range jobs {
			out[i] = j.Wire()
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req SubmitRequest
		if !decodeBody(w, r, &req) {
			return
		}
		b, err := resolveBench(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		j, err := s.svc.SubmitWith(b, req.Options.Options(), SubmitOpts{Deadline: req.Options.Deadline()})
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Wire())
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func submitErrCode(err error) int {
	var be *sched.BacklogError
	switch {
	case errors.Is(err, ErrQueueFull), errors.As(err, &be):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeSubmitError renders a submission error; backpressure rejections
// (estimated queue wait over the admission bound) carry a Retry-After
// header alongside the 429.
func writeSubmitError(w http.ResponseWriter, err error) {
	var be *sched.BacklogError
	if errors.As(err, &be) {
		secs := int(be.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeError(w, submitErrCode(err), "%v", err)
}

// handleECO submits an incremental re-synthesis run: the base result is
// looked up by content key, the delta replayed against its tree, and the
// short tuning cascade run on the repaired tree. An unknown base key is a
// 404 — the caller must run (or re-run) the base synthesis first.
func (s *Server) handleECO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req ECORequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Base == "" || req.Delta == "" {
		writeError(w, http.StatusBadRequest, "eco request needs base (result key) and delta")
		return
	}
	j, err := s.svc.SubmitECO(req.Base, req.Delta, req.Options.Options(),
		SubmitOpts{Deadline: req.Options.Deadline()})
	if err != nil {
		if strings.Contains(err.Error(), "no finished result under key") {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Wire())
}

func resolveBench(req SubmitRequest) (*bench.Benchmark, error) {
	switch {
	case req.Bench != "" && req.BenchText != "":
		return nil, fmt.Errorf("specify bench or bench_text, not both")
	case req.Bench != "":
		return bench.ISPD09(req.Bench)
	case req.BenchText != "":
		return bench.Read(strings.NewReader(req.BenchText))
	default:
		return nil, fmt.Errorf("missing bench or bench_text")
	}
}

func (s *Server) handleBatches(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	reqs, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs, err := s.svc.SubmitBatch(reqs)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	out := make([]*JobWire, len(jobs))
	for i, j := range jobs {
		out[i] = j.Wire()
	}
	writeJSON(w, http.StatusAccepted, map[string]interface{}{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	id, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, sub = rest[:i], rest[i+1:]
	}
	j, ok := s.svc.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	// Known sub-endpoints with the wrong method answer 405 (with the
	// allowed set), not 404 — only genuinely unknown paths are 404s.
	get := func(serve func()) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		serve()
	}
	switch {
	case sub == "":
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, j.Wire())
		case http.MethodDelete:
			j.Cancel()
			writeJSON(w, http.StatusOK, j.Wire())
		default:
			w.Header().Set("Allow", "GET, DELETE")
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
	case sub == "result":
		get(func() { s.serveResult(w, j) })
	case sub == "log":
		get(func() { writeJSON(w, http.StatusOK, map[string]interface{}{"lines": j.Logs()}) })
	case sub == "svg":
		get(func() { s.serveSVG(w, j) })
	case sub == "artifacts":
		get(func() { s.serveArtifactList(w, j) })
	case strings.HasPrefix(sub, "artifacts/"):
		get(func() { s.serveArtifact(w, j, strings.TrimPrefix(sub, "artifacts/")) })
	case sub == "events":
		get(func() { s.serveEvents(w, r, j) })
	default:
		writeError(w, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
	}
}

func (s *Server) serveResult(w http.ResponseWriter, j *Job) {
	// The wire rendering only reads the result, so the shared pointer is
	// fine — a defensive clone per poll would deep-copy the whole tree for
	// nothing.
	res, err := j.sharedResult()
	switch {
	case err != nil:
		writeError(w, http.StatusConflict, "job %s %s: %v", j.ID(), j.State(), err)
	case res == nil:
		writeError(w, http.StatusConflict, "job %s still %s", j.ID(), j.State())
	default:
		writeJSON(w, http.StatusOK, ResultToWire(res))
	}
}

// serveArtifactList lists the job's persisted artifacts (result, log,
// svg, job spec). On a service without a data dir the list is empty —
// the endpoint still exists so clients need not probe for capability.
func (s *Server) serveArtifactList(w http.ResponseWriter, j *Job) {
	arts := s.svc.Artifacts(j.Key())
	if arts == nil {
		arts = []ArtifactInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"key":       j.Key(),
		"durable":   s.svc.Durable(),
		"artifacts": arts,
	})
}

// artifactContentTypes maps artifact kinds to their media types.
var artifactContentTypes = map[string]string{
	artResult: "application/json",
	artJob:    "application/json",
	artLog:    "text/plain; charset=utf-8",
	artSVG:    "image/svg+xml",
	artTrace:  "application/json",
}

// serveArtifact streams one persisted artifact blob.
func (s *Server) serveArtifact(w http.ResponseWriter, j *Job, name string) {
	if !validArtifactName(name) {
		writeError(w, http.StatusNotFound, "no artifact kind %q (valid: %s)",
			name, strings.Join(ArtifactNames(), ", "))
		return
	}
	data, err := s.svc.Artifact(j.Key(), name)
	if err != nil && name == artTrace && (errors.Is(err, errNoStore) || errors.Is(err, store.ErrNotFound)) {
		// Traces exist in memory for every finished job of this process
		// (cache hits, failures, in-memory services) even though only
		// executed runs persist one.
		if mem, merr := j.TraceJSON(); merr == nil && mem != nil {
			data, err = mem, nil
		}
	}
	switch {
	case err == nil:
		w.Header().Set("Content-Type", artifactContentTypes[name])
		_, _ = w.Write(data)
	case errors.Is(err, errNoStore):
		writeError(w, http.StatusNotFound, "service has no durable store (start with a data dir)")
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, "job %s has no %q artifact", j.ID(), name)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) serveSVG(w http.ResponseWriter, j *Job) {
	svg, err := j.SVG() // rendered once per job, cached
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write(svg)
}

// serveEvents streams the job's progress log as server-sent events: one
// "log" event per line (buffered lines replay first) — with the
// pipeline's per-pass progress lines promoted to "pass" events — then a
// final "state" event carrying the terminal JobWire.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	past, ch, cancel := j.Subscribe(256)
	defer cancel()
	for _, line := range past {
		sseEvent(w, logEventType(line), line)
	}
	fl.Flush()
	for {
		select {
		case line, open := <-ch:
			if !open { // job finished
				state, _ := json.Marshal(j.Wire())
				sseEvent(w, "state", string(state))
				fl.Flush()
				return
			}
			sseEvent(w, logEventType(line), line)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// logEventType routes one job log line to its SSE event type: pipeline
// per-pass progress lines become "pass" events, everything else "log".
func logEventType(line string) string {
	if core.IsProgressLine(line) {
		return "pass"
	}
	return "log"
}

func sseEvent(w http.ResponseWriter, event, data string) {
	fmt.Fprintf(w, "event: %s\n", event)
	for _, line := range strings.Split(data, "\n") {
		fmt.Fprintf(w, "data: %s\n", line)
	}
	fmt.Fprint(w, "\n")
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"benchmarks": bench.ISPD09Names()})
}

// handleCorners lists the built-in corner sets (and the mc generator's
// grammar) as instantiated for the default technology model, including
// which corner holds the reference and worst-case roles.
func (s *Server) handleCorners(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"default": corners.DefaultName,
		"corners": corners.List(tech.Default45()),
	})
}

// handleQueue exposes the scheduler's live state: slot occupancy, the
// ranked waiting queue, the estimated backlog, and the cost model's
// calibration snapshot.
func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, s.svc.QueueInfo())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Stats())
}
