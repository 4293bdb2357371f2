package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/eco"
)

// scalePlan is the CI scale plan: the construction passes plus one round of
// each wire pass.
const scalePlan = "zst,legalize,buffer,polarity,twsz:1,twsn:1,bwsn:1"

// library runs the contest, scale and eco workloads through the library
// API, one operation at a time.
type library struct {
	in  *inputs
	dir string
	// eco: the base run's envelope, built during set-up.
	baseEnv []byte
}

// options returns the workload's synthesis options. Each operation gets
// its own so every run owns a fresh simulator.
func (l *library) options() core.Options {
	switch l.in.Workload {
	case "contest":
		return core.Options{FastSim: true}
	case "eco":
		return core.Options{FastSim: true, LargeInverters: true, Plan: "eco"}
	}
	return core.Options{FastSim: true, LargeInverters: true, Plan: scalePlan}
}

// setup does the product work eco needs before its first ECO: synthesize
// the base design and encode the result. Contest and scale need none.
func (l *library) setup() error {
	if l.in.Workload != "eco" {
		return nil
	}
	o := l.options()
	o.Plan = scalePlan
	env, _, err := synthesize([]byte(l.in.Designs[0].Text), o, nil)
	l.baseEnv = env
	return err
}

func (l *library) close() {}

// synthesize is one text-in, envelope-out run.
func synthesize(text []byte, o core.Options, r *recorder) ([]byte, *core.Result, error) {
	end := r.begin("bench.read")
	b, err := bench.Read(bytes.NewReader(text))
	end()
	if err != nil {
		return nil, nil, err
	}
	return synthesizeBench(b, o, r)
}

func synthesizeBench(b *bench.Benchmark, o core.Options, r *recorder) ([]byte, *core.Result, error) {
	r.install(&o)
	end := r.begin("core.synthesize")
	res, err := core.SynthesizeContext(context.Background(), b, o)
	end()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	end = r.begin("core.encode")
	err = core.EncodeResult(&buf, res)
	end()
	return buf.Bytes(), res, err
}

// deltaKey names the eco workload's i-th delta.
func deltaKey(i int) string { return fmt.Sprintf("delta-%d", i) }

// keys names the inputs one pass of the workload runs an operation on:
// its designs, or on eco its deltas.
func (l *library) keys() []string {
	var ks []string
	if l.in.Workload == "eco" {
		for i := range l.in.Deltas {
			ks = append(ks, deltaKey(i))
		}
		return ks
	}
	for _, d := range l.in.Designs {
		ks = append(ks, d.Key)
	}
	return ks
}

// ecoOp is one ECO: decode the base envelope, parse the delta and perturb
// the base benchmark with it, run the eco plan and encode.
func (l *library) ecoOp(delta string, r *recorder) ([]byte, *core.Result, error) {
	end := r.begin("core.decode")
	base, err := core.DecodeResult(bytes.NewReader(l.baseEnv))
	end()
	if err != nil {
		return nil, nil, err
	}
	end = r.begin("eco.delta")
	d, err := eco.ParseDelta(strings.NewReader(delta))
	var b *bench.Benchmark
	if err == nil {
		b, err = d.Perturb(base.Benchmark)
	}
	end()
	if err != nil {
		return nil, nil, err
	}
	o := l.options()
	o.ECO = &eco.Spec{Delta: d, Base: base.Tree, Composite: base.Composite, BaseElapsed: base.Elapsed}
	return synthesizeBench(b, o, r)
}

// op runs one operation on the input named key.
func (l *library) op(key string, r *recorder) ([]byte, *core.Result, error) {
	if l.in.Workload == "eco" {
		for i, delta := range l.in.Deltas {
			if deltaKey(i) == key {
				return l.ecoOp(delta, r)
			}
		}
	} else {
		for _, d := range l.in.Designs {
			if d.Key == key {
				return synthesize([]byte(d.Text), l.options(), r)
			}
		}
	}
	return nil, nil, fmt.Errorf("no input %q", key)
}

// measure runs operations round-robin over the workload's inputs until
// the window has passed and every input ran at least once. A traced run
// runs each operation twice, traced and untraced in alternating order, so
// the trace overhead is measured inside one process.
func (l *library) measure(window time.Duration, trace bool) (*childReport, error) {
	rep := &childReport{Envelopes: map[string]envelopeRef{}}
	var rec *recorder
	if trace {
		rec = newRecorder()
	}
	rep.RSSSource = resetPeakRSS()
	start := time.Now()
	keys := l.keys()
	for round := 0; ; round++ {
		for i, key := range keys {
			if round > 0 && time.Since(start) >= window {
				rep.PeakRSSMB = peakRSSMB(rep.RSSSource)
				if trace {
					rep.libraryLayers(rec)
					if err := writeChromeTrace(filepath.Join(l.dir, traceFile), rec.spans); err != nil {
						return nil, err
					}
				}
				return rep, nil
			}
			order := []*recorder{nil}
			if trace && (round+i)%2 == 0 {
				order = []*recorder{rec, nil}
			} else if trace {
				order = []*recorder{nil, rec}
			}
			for _, r := range order {
				rep.Ops = append(rep.Ops, l.timedOp(key, r, rep.Envelopes))
			}
		}
	}
}

// timedOp runs and times one operation, then hashes its envelope and keeps
// the first envelope of each input for the checker, outside the timing.
func (l *library) timedOp(key string, r *recorder, envs map[string]envelopeRef) opRecord {
	op := opRecord{Key: key, Traced: r != nil}
	var ms0, ms1 runtime.MemStats
	if r != nil {
		runtime.ReadMemStats(&ms0)
	}
	end := r.begin("op")
	t0 := time.Now()
	env, res, err := l.op(key, r)
	op.Seconds = time.Since(t0).Seconds()
	end()
	if r != nil {
		runtime.ReadMemStats(&ms1)
		op.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
		op.GCCycles = ms1.NumGC - ms0.NumGC
		op.GCPauseS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	}
	if err != nil {
		op.Err = err.Error()
		return op
	}
	op.Bytes = len(env)
	op.Runs, op.StageSims, op.StageReuses = res.Runs, res.StageSims, res.StageReuses
	op.Skew, op.CLR, op.CapFF = res.Final.Skew, res.Final.CLR, res.Final.TotalCap
	norm, err := zeroElapsed(env)
	if err != nil {
		op.Err = err.Error()
		return op
	}
	op.Hash = sha256Hex(norm)
	if _, ok := envs[key]; !ok {
		name := "env-" + key + ".json"
		if err := os.WriteFile(filepath.Join(l.dir, name), env, 0o644); err != nil {
			op.Err = err.Error()
			return op
		}
		envs[key] = envelopeRef{File: name}
	}
	return op
}
