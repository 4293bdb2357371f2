package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"contango/internal/obs"
	"contango/internal/service"
)

// drainTimeout bounds the wait for submitted jobs to finish after the
// window closes; jobs still open then count as failed.
const drainTimeout = 60 * time.Second

// serviceLoad is the service workload: a durable contangod service and its
// HTTP server on a loopback port, driven by an open loop from the same
// process.
type serviceLoad struct {
	in      *inputs
	dir     string
	dataDir string
	svc     *service.Service
	srv     *http.Server
	served  chan error
	client  *http.Client
	base    string
}

// setup opens the service on a fresh data directory (fsync on, default
// pack scheduler, one worker per CPU) and starts serving it.
func (s *serviceLoad) setup() error {
	s.dataDir = filepath.Join(s.dir, "data")
	if err := os.RemoveAll(s.dataDir); err != nil {
		return err
	}
	svc, err := service.Open(service.Config{DataDir: s.dataDir, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	s.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: service.NewServer(svc), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	// At most one connection per CPU, like a client sharing the machine.
	conns := runtime.NumCPU()
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   drainTimeout,
	}
	var health map[string]string
	return s.getJSON("/healthz", &health)
}

func (s *serviceLoad) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx) // a forced close below still ends Serve
		cancel()
		_ = s.srv.Close()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir) // scratch data under the work directory
	}
}

func (s *serviceLoad) getJSON(path string, v interface{}) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *serviceLoad) getBytes(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// submission is the client's view of one scheduled POST.
type submission struct {
	due, sent, answered time.Time
	job                 string
	err                 string
}

func (s *serviceLoad) submit(body string) submission {
	sub := submission{sent: time.Now()}
	resp, err := s.client.Post(s.base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	sub.answered = time.Now()
	if err != nil {
		sub.err = err.Error()
		return sub
	}
	defer resp.Body.Close()
	var w service.JobWire
	derr := json.NewDecoder(resp.Body).Decode(&w)
	switch {
	case resp.StatusCode != http.StatusAccepted:
		sub.err = "POST /api/v1/jobs: " + resp.Status
	case derr != nil:
		sub.err = derr.Error()
	default:
		sub.job = w.ID
	}
	return sub
}

// measure sends every scheduled request at its time, each on its own
// goroutine so a slow answer never delays the next send, then waits for
// all jobs to finish and collects what the checker and the metrics need.
// The schedule was drawn for the window, so it alone sets the run's length.
func (s *serviceLoad) measure(_ time.Duration, trace bool) (*childReport, error) {
	rep := &childReport{Envelopes: map[string]envelopeRef{}}
	sched := s.in.Schedule
	subs := make([]submission, len(sched))
	var late time.Duration
	var wg sync.WaitGroup
	rep.RSSSource = resetPeakRSS()
	var mem [2]runtime.MemStats
	runtime.ReadMemStats(&mem[0])
	cpu0, start := processCPUSeconds(), time.Now()
	for i, a := range sched {
		due := start.Add(time.Duration(a.At * float64(time.Second)))
		time.Sleep(time.Until(due))
		if l := time.Since(due); l > late {
			late = l
		}
		wg.Add(1)
		go func(i int, body string, due time.Time) {
			defer wg.Done()
			sub := s.submit(body)
			sub.due = due
			subs[i] = sub
		}(i, a.Body, due)
	}
	wg.Wait()
	jobs, err := s.drain(subs)
	if err != nil {
		return nil, err
	}
	// With one job per worker and one worker per CPU, the share of the
	// CPUs the process kept busy is the workers' utilization.
	busy := (processCPUSeconds() - cpu0) / (float64(runtime.GOMAXPROCS(0)) * time.Since(start).Seconds())
	rep.PeakRSSMB = peakRSSMB(rep.RSSSource)
	runtime.ReadMemStats(&mem[1])

	for i, sub := range subs {
		op := opRecord{Err: sub.err}
		if j := jobs[sub.job]; j != nil {
			op.Key = j.Key
			if j.State == service.Done && j.Finished != nil {
				op.Seconds = j.Finished.Sub(sub.due).Seconds()
			} else {
				op.Err = fmt.Sprintf("job %s %s: %s", j.ID, j.State, j.Error)
			}
		} else if op.Err == "" {
			op.Err = "job " + sub.job + " missing from the job list"
		}
		rep.Ops = append(rep.Ops, op)
		if op.Err != "" {
			continue
		}
		if _, ok := rep.Envelopes[op.Key]; !ok {
			data, err := s.getBytes("/api/v1/jobs/" + sub.job + "/artifacts/result")
			if err != nil {
				rep.Ops[i].Err = err.Error()
				continue
			}
			name := fmt.Sprintf("env-%03d.json", len(rep.Envelopes))
			if err := os.WriteFile(filepath.Join(s.dir, name), data, 0o644); err != nil {
				return nil, err
			}
			rep.Envelopes[op.Key] = envelopeRef{File: name, Arrival: i}
		}
	}
	layers, err := s.layers(subs, jobs, late, busy, &mem, rep)
	if err != nil {
		return nil, err
	}
	if trace {
		if err := s.traceLayers(jobs, layers, rep); err != nil {
			return nil, err
		}
	}
	rep.Layers = layers
	if late > 50*time.Millisecond {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("load generator ran %.3fs late: the run does not show the scheduled load", late.Seconds()))
	}
	return rep, nil
}

// drain polls the job list until every accepted submission's job is
// terminal, and returns the final snapshot of each by ID.
func (s *serviceLoad) drain(subs []submission) (map[string]*service.JobWire, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		var list []*service.JobWire
		if err := s.getJSON("/api/v1/jobs", &list); err != nil {
			return nil, err
		}
		jobs := make(map[string]*service.JobWire, len(list))
		for _, j := range list {
			jobs[j.ID] = j
		}
		open := 0
		for _, sub := range subs {
			if j := jobs[sub.job]; j != nil && (j.State == service.Queued || j.State == service.Running) {
				open++
			}
		}
		if open == 0 || time.Now().After(deadline) {
			return jobs, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// layers computes the service-side metrics of one run from the client's
// records, the job snapshots, the service's own counters and the process's
// Go runtime statistics before and after the window.
func (s *serviceLoad) layers(subs []submission, jobs map[string]*service.JobWire, late time.Duration, utilization float64, mem *[2]runtime.MemStats, rep *childReport) (map[string]float64, error) {
	var lat, hits, rtt []float64
	for i, sub := range subs {
		if sub.err == "" {
			rtt = append(rtt, sub.answered.Sub(sub.sent).Seconds())
		}
		op := rep.Ops[i]
		if op.Err != "" {
			continue
		}
		lat = append(lat, op.Seconds)
		if jobs[sub.job].CacheHit {
			hits = append(hits, op.Seconds)
		}
	}
	var wait, exec []float64
	var runs, sims, reuses float64
	quality := map[string]bool{}
	var skew, clr, capFF float64
	for _, j := range jobs {
		if j.State != service.Done || j.Finished == nil || j.Result == nil {
			continue
		}
		if !quality[j.Key] {
			quality[j.Key] = true
			skew += j.Result.Final.SkewPs
			clr += j.Result.Final.CLRPs
			capFF += j.Result.Final.TotalCapFF
		}
		if j.CacheHit || j.Started == nil {
			continue
		}
		wait = append(wait, j.Started.Sub(j.Submitted).Seconds())
		exec = append(exec, j.Finished.Sub(*j.Started).Seconds())
		runs += float64(j.Result.Runs)
		sims += float64(j.Result.StageSims)
		reuses += float64(j.Result.StageReuses)
	}
	var st service.Stats
	if err := s.getJSON("/api/v1/stats", &st); err != nil {
		return nil, err
	}
	prom, err := s.getBytes("/metrics")
	if err != nil {
		return nil, err
	}
	counters, err := obs.ParseText(bytes.NewReader(prom))
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"service.jobs":             float64(len(lat)),
		"service.submit_p50_s":     median(rtt),
		"service.job_p90_s":        percentile(lat, 0.9),
		"service.queue_wait_p50_s": median(wait),
		"service.queue_wait_p90_s": percentile(wait, 0.9),
		"service.exec_p50_s":       median(exec),
		"service.hit_p50_s":        median(hits),
		"service.coalesced":        float64(st.Coalesced),
		"service.rejected":         float64(st.Rejected),
		"service.utilization":      utilization,
		"sched.splits":             counters["contango_sched_splits_total"],
		"sched.yields":             counters["contango_sched_yields_total"],
		"store.writes":             counters["contango_store_writes_total"],
		"store.write_mb":           counters["contango_store_write_bytes_total"] / mib,
		"loadgen.late_max_s":       late.Seconds(),
	}
	if st.Submitted > 0 {
		m["service.cache_hit_ratio"] = float64(st.CacheHits) / float64(st.Submitted)
	}
	if n := float64(len(exec)); n > 0 {
		m["spice.runs"] = runs / n
		m["spice.stage_sims"] = sims / n
		m["spice.stage_reuses"] = reuses / n
		m["go.alloc_mb"] = float64(mem[1].TotalAlloc-mem[0].TotalAlloc) / mib / n
		m["go.gc_cycles"] = float64(mem[1].NumGC-mem[0].NumGC) / n
		m["go.gc_pause_s"] = float64(mem[1].PauseTotalNs-mem[0].PauseTotalNs) / 1e9 / n
	}
	if sims+reuses > 0 {
		m["spice.stage_reuse_ratio"] = reuses / (sims + reuses)
	}
	if n := float64(len(quality)); n > 0 {
		m["eval.skew_ps"] = skew / n
		m["eval.clr_ps"] = clr / n
		m["eval.cap_pf"] = capFF / n / 1000
	}
	var envBytes float64
	for _, ref := range rep.Envelopes {
		if fi, err := os.Stat(filepath.Join(s.dir, ref.File)); err == nil {
			envBytes += float64(fi.Size())
		}
	}
	if n := float64(len(rep.Envelopes)); n > 0 {
		m["core.envelope_mb"] = envBytes / n / mib
	}
	for k, v := range m {
		if v != v { // NaN: an empty sample set
			m[k] = 0
		}
	}
	return m, nil
}

// jobSpan maps the service's per-job trace spans onto layer metrics.
var jobSpan = map[string]string{
	"pass:zst":      "dme.zst_s",
	"pass:legalize": "route.legalize_s",
	"pass:buffer":   "buffering.buffer_s",
	"pass:polarity": "buffering.polarity_s",
	"pass:tbsz":     "opt.tbsz_s",
	"pass:twsz":     "opt.twsz_s",
	"pass:twsn":     "opt.twsn_s",
	"pass:bwsn":     "opt.bwsn_s",
	"corner_eval":   "flow.arm_s",
	"persist":       "service.persist_s",
}

// traceLayers reads the trace artifact of every executed job and adds the
// mean time per executed job of each traced phase to m. The per-job traces
// are the service's own, recorded on every run, so the traced run sends
// exactly the untraced run's load and its overhead is zero by design.
func (s *serviceLoad) traceLayers(jobs map[string]*service.JobWire, m map[string]float64, rep *childReport) error {
	ids := make([]string, 0, len(jobs))
	for id, j := range jobs {
		if j.State == service.Done && !j.CacheHit {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return jobs[ids[a]].Submitted.Before(jobs[ids[b]].Submitted) })
	var spans []span
	var covered, rootTotal float64
	for tid, id := range ids {
		data, err := s.getBytes("/api/v1/jobs/" + id + "/artifacts/trace")
		if err != nil {
			return err
		}
		var ct struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ts   float64 `json:"ts"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &ct); err != nil {
			return fmt.Errorf("job %s trace: %w", id, err)
		}
		if len(ct.TraceEvents) == 0 {
			return errors.New("job " + id + " has an empty trace")
		}
		root := len(spans)
		t0 := jobs[id].Submitted.Sub(jobs[ids[0]].Submitted)
		for k, ev := range ct.TraceEvents {
			sp := span{Name: ev.Name, Parent: root, Tid: tid + 1,
				Start: t0 + time.Duration(ev.Ts*float64(time.Microsecond)),
				End:   t0 + time.Duration((ev.Ts+ev.Dur)*float64(time.Microsecond))}
			if k == 0 {
				sp.Name, sp.Parent = "service.job", -1
				rootTotal += ev.Dur / 1e6
			} else {
				covered += ev.Dur / 1e6
				if name, ok := jobSpan[ev.Name]; ok {
					m[name] += ev.Dur / 1e6 / float64(len(ids))
				}
			}
			spans = append(spans, sp)
		}
	}
	if rootTotal > 0 {
		m["trace.coverage_pct"] = 100 * covered / rootTotal
	}
	rep.SelfTimes = layerTable(spans)
	rep.OpTotalS = rootTotal
	return writeChromeTrace(filepath.Join(s.dir, traceFile), spans)
}
