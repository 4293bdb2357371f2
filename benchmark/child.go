package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// opRecord is one timed operation of a workload process: a library
// synthesis (bench text or base envelope in, envelope bytes out) or one
// service submission.
type opRecord struct {
	Key     string  `json:"key"`
	Traced  bool    `json:"traced,omitempty"`
	Seconds float64 `json:"seconds"`
	Err     string  `json:"err,omitempty"`
	// Library operations: the envelope's size and its sha256 with the
	// elapsed time zeroed, the result's counters and final quality.
	Hash        string  `json:"hash,omitempty"`
	Bytes       int     `json:"bytes,omitempty"`
	Runs        int     `json:"runs,omitempty"`
	StageSims   int     `json:"stage_sims,omitempty"`
	StageReuses int     `json:"stage_reuses,omitempty"`
	Skew        float64 `json:"skew_ps,omitempty"`
	CLR         float64 `json:"clr_ps,omitempty"`
	CapFF       float64 `json:"cap_ff,omitempty"`
	// Traced operations: Go runtime deltas around the call.
	AllocMB  float64 `json:"alloc_mb,omitempty"`
	GCCycles uint32  `json:"gc_cycles,omitempty"`
	GCPauseS float64 `json:"gc_pause_s,omitempty"`
}

// envelopeRef names the envelope file kept for one key, and for the
// service the schedule entry whose submission produced it.
type envelopeRef struct {
	File    string `json:"file"`
	Arrival int    `json:"arrival"`
}

// childReport is everything a workload process hands back to the parent.
type childReport struct {
	Ops       []opRecord             `json:"ops"`
	PeakRSSMB float64                `json:"peak_rss_mb"`
	RSSSource string                 `json:"rss_source"`
	Envelopes map[string]envelopeRef `json:"envelopes"`
	Layers    map[string]float64     `json:"layers,omitempty"`
	SelfTimes []layerRow             `json:"self_times,omitempty"`
	OpTotalS  float64                `json:"op_total_s,omitempty"`
	Warnings  []string               `json:"warnings,omitempty"`
}

const (
	childArg   = "child"
	reportFile = "report.json"
)

// readyLine is the child's first line on standard output, sent when its
// product set-up is done. HarnessS is the time it spent reading its input
// files, which the parent does not count as set-up.
type readyLine struct {
	Ready    bool    `json:"ready"`
	HarnessS float64 `json:"harness_s"`
}

// runChild is the workload process: it reads its inputs, sets the product
// up, signals readiness, measures for the given seconds and writes its
// report. With -setup-only it exits right after signalling readiness.
func runChild(args []string) int {
	fs := flag.NewFlagSet(childArg, flag.ContinueOnError)
	dir := fs.String("dir", "", "work directory holding inputs.json")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Bool("trace", false, "record layer spans")
	setupOnly := fs.Bool("setup-only", false, "exit after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	t0 := time.Now()
	in, err := readInputs(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	harness := time.Since(t0)
	w, err := newWorkload(in, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer w.close()
	if err := w.setup(); err != nil {
		fmt.Fprintf(os.Stderr, "%s set-up: %v\n", in.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(readyLine{Ready: true, HarnessS: harness.Seconds()}); err != nil {
		return 1
	}
	if *setupOnly {
		return 0
	}
	rep, err := w.measure(time.Duration(*seconds*float64(time.Second)), *trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", in.Workload, err)
		return 1
	}
	data, err := json.Marshal(rep)
	if err == nil {
		err = os.WriteFile(filepath.Join(*dir, reportFile), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// workloadProc is a workload as its process runs it.
type workloadProc interface {
	setup() error
	measure(d time.Duration, trace bool) (*childReport, error)
	close()
}

func newWorkload(in *inputs, dir string) (workloadProc, error) {
	switch in.Workload {
	case "contest", "scale", "eco":
		return &library{in: in, dir: dir}, nil
	case "service":
		return &serviceLoad{in: in, dir: dir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", in.Workload)
}

// elapsedField is how the envelope encoder renders the run's wall time,
// the one field that differs between repeated runs of one input.
var elapsedField = []byte(`"elapsed_ns":`)

// zeroElapsed returns env with its elapsed time rewritten to 0. The checker
// confirms the result equals re-encoding the decoded result with Elapsed
// zeroed, so hashes of repeated runs compare results, not timings.
func zeroElapsed(env []byte) ([]byte, error) {
	i := bytes.Index(env, elapsedField)
	if i < 0 {
		return nil, errors.New("envelope has no elapsed_ns field")
	}
	j := i + len(elapsedField)
	k := j
	for k < len(env) && env[k] >= '0' && env[k] <= '9' {
		k++
	}
	out := make([]byte, 0, len(env))
	out = append(out, env[:j]...)
	out = append(out, '0')
	return append(out, env[k:]...), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
