// Command contango runs the Contango clock-network synthesis flow on a named
// synthetic benchmark or a benchmark file and prints per-stage metrics.
// With -cache-dir it shares the durable result store used by contangod:
// a run whose (benchmark, options) content address is already on disk is
// served from the store instead of re-synthesized, and fresh runs persist
// their result for the next invocation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/corners"
	"contango/internal/eco"
	"contango/internal/obs"
	"contango/internal/service"
	"contango/internal/store"
)

func main() {
	name := flag.String("bench", "ispd09f22", "named benchmark (ispd09f11..fnb1) or path to a .cns file")
	verbose := flag.Bool("v", false, "shorthand for -log-level debug (logs flow progress)")
	logFormat := flag.String("log-format", "text", "diagnostic log format on stderr: text or json")
	logLevel := flag.String("log-level", "info", "minimum diagnostic log level: debug, info, warn or error")
	fast := flag.Bool("fast", false, "coarser simulation settings for large instances")
	large := flag.Bool("large-inverters", false, "use groups of large inverters (TI mode)")
	svg := flag.String("svg", "", "write the final tree as SVG to this path")
	jsonOut := flag.Bool("json", false, "emit the result as JSON (the contangod wire format)")
	parallel := flag.Int("parallel", 0, "stage-simulation workers for the optimization cascade (0 = all CPUs, 1 = serial)")
	plan := flag.String("plan", "", "synthesis plan: a built-in name ("+strings.Join(core.PlanNames(), ", ")+
		") or a plan-spec string like 'tbsz:2,cycle(twsz,twsn)x2'")
	listPlans := flag.Bool("plans", false, "list the built-in synthesis plans and exit")
	cornerSpec := flag.String("corners", "", "PVT corner set: "+strings.Join(corners.Names(), ", ")+
		", or 'mc:<n>:<seed>[:vsigma[:rsigma[:csigma]]]' for Monte Carlo variation samples")
	cacheDir := flag.String("cache-dir", "", "durable result store to reuse prior results from and persist this run's result to (shareable with contangod -data-dir)")
	deadline := flag.Duration("deadline", 0, "soft wall-clock deadline for the run; reported as met or missed on stderr, never kills the run (0 = none)")
	ecoFile := flag.String("eco", "", "ECO delta file: incrementally re-synthesize the -base run with this delta applied (requires -cache-dir and -base; -bench is ignored)")
	baseKey := flag.String("base", "", "content key of the finished base run an -eco delta applies to")
	flag.Parse()

	if *listPlans {
		for _, n := range core.PlanNames() {
			spec, _ := core.BuiltinSpec(n)
			fmt.Printf("%-10s %s\n", n, spec)
		}
		return
	}
	level := *logLevel
	if *verbose {
		level = "debug"
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fail := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}
	if _, err := core.ResolvePlan(*plan); err != nil {
		fail(err)
	}
	if err := corners.Validate(*cornerSpec); err != nil {
		fail(err)
	}

	opt := core.Options{FastSim: *fast, LargeInverters: *large, Parallelism: *parallel,
		Plan: *plan, Corners: *cornerSpec}
	if level == "debug" {
		opt.Log = func(f string, a ...interface{}) { logger.Debug(fmt.Sprintf(f, a...)) }
	}

	// The durable store is keyed by the same content address the service
	// uses (JobKey excludes hooks and parallelism), so the one-shot CLI,
	// repeated invocations of itself and a contangod sharing the directory
	// all reuse each other's finished results. It opens before the
	// benchmark resolves because ECO mode reads its benchmark out of the
	// store: the base run's result plus the delta.
	started := time.Now()
	var st *store.Store
	if *cacheDir != "" {
		st, err = store.Open(*cacheDir, true)
		if err != nil {
			fail(err)
		}
	}
	var b *bench.Benchmark
	if *ecoFile != "" {
		b, err = setupECO(st, *ecoFile, *baseKey, &opt)
	} else {
		b, err = loadBench(*name)
	}
	if err != nil {
		fail(err)
	}

	var key string
	var res *core.Result
	if st != nil {
		key = service.JobKey(b, opt)
		if data, gerr := st.Get(service.ResultArtifactKey(key)); gerr == nil {
			if cached, derr := core.DecodeResult(bytes.NewReader(data)); derr == nil {
				res = cached
				logger.Info("reusing cached result",
					"bench", b.Name, "key", key[:12], "cache_dir", *cacheDir)
			}
		}
	}
	if res == nil {
		res, err = core.Synthesize(b, opt)
		if err != nil {
			fail(err)
		}
		if st != nil {
			var buf bytes.Buffer
			perr := core.EncodeResult(&buf, res)
			if perr == nil {
				perr = st.Put(service.ResultArtifactKey(key), buf.Bytes())
			}
			if perr != nil {
				logger.Warn("result not cached", "error", perr.Error())
			} else {
				// The full key is what -eco -base wants back.
				logger.Info("result cached", "bench", b.Name, "key", key, "cache_dir", *cacheDir)
			}
		}
	}
	// The deadline is soft, exactly as in the service scheduler: a miss is
	// reported, never enforced by killing the synthesis.
	if *deadline > 0 {
		if wall := time.Since(started); wall > *deadline {
			logger.Warn("deadline missed", "deadline", deadline.String(), "elapsed", wall.Round(time.Millisecond).String())
		} else {
			logger.Info("deadline met", "deadline", deadline.String(), "elapsed", wall.Round(time.Millisecond).String())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(service.ResultToWire(res)); err != nil {
			fail(err)
		}
	} else {
		fmt.Printf("benchmark %s: %d sinks, %d buffers (%v), %d simulator runs, %v\n",
			b.Name, len(b.Sinks), res.Buffers, res.Composite, res.Runs, res.Elapsed.Round(1e6))
		if res.StageSims+res.StageReuses > 0 {
			fmt.Printf("incremental CNE: %d stage sims, %d cache hits (%.0f%% reused)\n",
				res.StageSims, res.StageReuses,
				100*float64(res.StageReuses)/float64(res.StageSims+res.StageReuses))
		}
		fmt.Printf("legalization: %v\n", res.Legalization)
		fmt.Printf("polarity: %d inverted sinks -> %d added inverters\n", res.InvertedSinks, res.AddedInverters)
		for _, s := range res.Stages {
			fmt.Printf("%-8s %s\n", s.Name, s.Metrics)
		}
		// Per-corner breakdown for non-default corner sets; the contest
		// pair keeps the compact single-line report above.
		if fm := res.Final; len(fm.PerCorner) > 2 {
			fmt.Printf("corner spread: clr-spread=%.2fps worst-corner=%s\n", fm.CLRSpread, fm.WorstCorner)
			for _, c := range fm.PerCorner {
				fmt.Printf("  %-16s vdd=%.3fV lat=[%.1f..%.1f]ps skew=%.3fps slew=%.1fps viol=%d\n",
					c.Name, c.Vdd, c.MinLat, c.MaxLat, c.Skew, c.MaxSlew, c.SlewViol)
			}
			if fm.MCSamples > 0 {
				fmt.Printf("variation: %d samples, yield=%.1f%% lat-p50=%.1fps lat-p95=%.1fps\n",
					fm.MCSamples, 100*fm.Yield, fm.LatP50, fm.LatP95)
			}
		}
	}
	if *svg != "" {
		if err := writeSVG(res, *svg); err != nil {
			fail(err)
		}
		// Keep stdout pure JSON when -json is set.
		out := os.Stdout
		if *jsonOut {
			out = os.Stderr
		}
		fmt.Fprintf(out, "wrote %s\n", *svg)
	}
}

// setupECO resolves an incremental run: it loads the base run's result
// from the store, applies the delta file to the base benchmark, and fills
// opt with the ECO spec (defaulting the plan to the "eco" builtin). The
// returned benchmark is the perturbed one — the extended content key then
// caches the ECO result like any other run.
func setupECO(st *store.Store, ecoFile, baseKey string, opt *core.Options) (*bench.Benchmark, error) {
	if st == nil {
		return nil, fmt.Errorf("-eco requires -cache-dir: the base result lives in the durable store")
	}
	if baseKey == "" {
		return nil, fmt.Errorf("-eco requires -base with the base run's content key")
	}
	data, err := st.Get(service.ResultArtifactKey(baseKey))
	if err != nil {
		return nil, fmt.Errorf("base result %s: %w (run the base synthesis with -cache-dir first)", baseKey, err)
	}
	base, err := core.DecodeResult(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("base result %s: %w", baseKey, err)
	}
	f, err := os.Open(ecoFile)
	if err != nil {
		return nil, err
	}
	d, err := eco.ParseDelta(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	b, err := d.Perturb(base.Benchmark)
	if err != nil {
		return nil, err
	}
	if opt.Plan == "" {
		opt.Plan = "eco"
	}
	opt.ECO = &eco.Spec{BaseKey: baseKey, Delta: d, Base: base.Tree,
		Composite: base.Composite, BaseElapsed: base.Elapsed}
	return b, nil
}

func loadBench(name string) (*bench.Benchmark, error) {
	if b, err := bench.ISPD09(name); err == nil {
		return b, nil
	}
	b, err := bench.Load(name)
	if err != nil {
		return nil, fmt.Errorf("not a named benchmark: %w", err)
	}
	return b, nil
}
