package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"contango/internal/bench"
	"contango/internal/eco"
	"contango/internal/service"
)

// sizes fixes how much work each workload's inputs carry. The benchmark
// runs fullSizes only; tests use tinier ones so every workload can be
// smoke-run in seconds.
type sizes struct {
	Contest    []string // ISPD'09 designs of the contest suite
	ScaleSinks int      // sinks of the scale (and eco base) design
	ECOFrac    float64  // share of the eco base's sinks one delta touches
	ECODeltas  int      // deltas one eco run cycles through
	// Service mix: arrivals per second, the sink range of fresh designs,
	// and the size and corner count of Monte Carlo sweeps.
	Rate         float64
	FreshSinks   [2]int
	SweepSinks   int
	SweepCorners int
}

// fullSizes are the benchmark's fixed sizes. The service rate was
// calibrated once on a 2-vCPU x86 VM so that the workers are busy 40-60%
// of the window.
var fullSizes = sizes{
	Contest:      []string{"ispd09f11", "ispd09f12", "ispd09f21", "ispd09f22", "ispd09fnb1"},
	ScaleSinks:   5000,
	ECOFrac:      0.01,
	ECODeltas:    3,
	Rate:         2.5,
	FreshSinks:   [2]int{50, 100},
	SweepSinks:   30,
	SweepCorners: 24,
}

// design is one benchmark in its canonical text form (bench.Write).
type design struct {
	Key  string `json:"key"`
	Text string `json:"text"`
}

// arrival is one scheduled submission of the service workload's open
// loop: the POST /api/v1/jobs body to send At seconds into the window.
type arrival struct {
	At   float64 `json:"at_s"`
	Kind string  `json:"kind"` // fresh, resubmit or sweep
	Body string  `json:"body"`
}

// inputs are everything a workload process reads: generated by the parent
// from the seed alone, written to the work directory, and read back by the
// child, so the program under test receives only generated inputs.
type inputs struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Designs  []design  `json:"designs,omitempty"`
	Deltas   []string  `json:"deltas,omitempty"`
	Schedule []arrival `json:"schedule,omitempty"`
}

// genInputs builds a workload's inputs from its seed. The service schedule
// spans the measured window, so it depends on seconds too.
func genInputs(workload string, seed int64, seconds float64, sz sizes) (*inputs, error) {
	in := &inputs{Workload: workload, Seed: seed}
	switch workload {
	case "contest":
		// The paper's Table IV suite is fixed: the seed does not change it.
		for _, name := range sz.Contest {
			b, err := bench.ISPD09(name)
			if err != nil {
				return nil, err
			}
			d, err := renderDesign(name, b)
			if err != nil {
				return nil, err
			}
			in.Designs = append(in.Designs, d)
		}
	case "scale", "eco":
		b := bench.NewTIPool().Sample(sz.ScaleSinks, seed)
		d, err := renderDesign(b.Name, b)
		if err != nil {
			return nil, err
		}
		in.Designs = []design{d}
		if workload == "eco" {
			// Several deltas per run: the cascade's cost after one delta
			// swings by a quarter either way with the delta drawn.
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < sz.ECODeltas; i++ {
				delta, err := eco.Generate(b, sz.ECOFrac, rng.Int63())
				if err != nil {
					return nil, err
				}
				in.Deltas = append(in.Deltas, delta.String())
			}
		}
	case "service":
		sched, err := genSchedule(seed, seconds, sz)
		if err != nil {
			return nil, err
		}
		in.Schedule = sched
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

func renderDesign(key string, b *bench.Benchmark) (design, error) {
	var buf bytes.Buffer
	if err := bench.Write(&buf, b); err != nil {
		return design{}, fmt.Errorf("render %s: %w", key, err)
	}
	return design{Key: key, Text: buf.String()}, nil
}

// mixPattern assigns request kinds by arrival position: in every ten
// arrivals seven fresh designs, two resubmissions and one sweep. A fixed
// pattern rather than independent draws keeps sweeps from piling up in
// one run and not another, which would make latency and peak memory
// depend on the seed more than on the program.
const mixPattern = "ffrffsfrff"

// genSchedule draws the service workload's open-loop schedule: the window
// is cut into slots of 1/sz.Rate seconds and one request is sent at a
// uniformly random time inside each. Sends are as random as independent
// users' inside a slot but never bunch across slots, so the queueing a run
// sees, and with it latency and peak memory, does not swing with the seed.
// The mix is 70% fresh TI samples (plan fast), 20% verbatim resubmissions
// of an earlier request (cache hits, or coalesced while the original still
// runs) and 10% Monte Carlo sweeps with more corners than the scheduler's
// 16-corner split size.
func genSchedule(seed int64, seconds float64, sz sizes) ([]arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := bench.NewTIPool()
	slot := 1 / sz.Rate
	n := int(seconds*sz.Rate + 1e-9)
	var out []arrival
	var sent []string // bodies a resubmission may repeat
	sweeps := 0
	for i := 0; i < n; i++ {
		a := arrival{At: (float64(i) + rng.Float64()) * slot}
		switch mixPattern[i%len(mixPattern)] {
		case 'r':
			a.Kind = "resubmit"
			a.Body = sent[rng.Intn(len(sent))]
		case 's':
			a.Kind = "sweep"
			// Sweeps characterize one fixed design over corner sets
			// mc:<n>:1, mc:<n>:2, ... in every run. A sweep's cost and
			// memory swing several-fold with its design and sample set,
			// which would let the seed, not the program, decide a run's
			// tail and peak memory.
			sweeps++
			body, err := submitBody(pool.Sample(sz.SweepSinks, 1), service.OptionsWire{Plan: "fast", FastSim: true,
				Corners: fmt.Sprintf("mc:%d:%d", sz.SweepCorners, sweeps)})
			if err != nil {
				return nil, err
			}
			a.Body = body
		default:
			a.Kind = "fresh"
			n := sz.FreshSinks[0] + rng.Intn(sz.FreshSinks[1]-sz.FreshSinks[0]+1)
			body, err := submitBody(pool.Sample(n, rng.Int63()), service.OptionsWire{Plan: "fast", FastSim: true})
			if err != nil {
				return nil, err
			}
			a.Body = body
		}
		if a.Kind != "resubmit" {
			sent = append(sent, a.Body)
		}
		out = append(out, a)
	}
	return out, nil
}

func submitBody(b *bench.Benchmark, o service.OptionsWire) (string, error) {
	var buf bytes.Buffer
	if err := bench.Write(&buf, b); err != nil {
		return "", err
	}
	body, err := json.Marshal(service.SubmitRequest{BenchText: buf.String(), Options: o})
	return string(body), err
}

const inputsFile = "inputs.json"

func writeInputs(dir string, in *inputs) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, inputsFile), data, 0o644)
}

func readInputs(dir string) (*inputs, error) {
	data, err := os.ReadFile(filepath.Join(dir, inputsFile))
	if err != nil {
		return nil, err
	}
	var in inputs
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("read inputs: %w", err)
	}
	return &in, nil
}
