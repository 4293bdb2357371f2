// Command benchmark is contango's end-to-end benchmark. It measures the
// product from outside: benchmark text in and an encoded result envelope
// out for the library workloads (contest, scale, eco), HTTP requests in and
// finished jobs out for the service workload. Each workload runs in its
// own process, after several set-up-only processes that time its set-up;
// this process generates the inputs from the seed, checks every output
// independently and reports the metrics.
//
// Run it from the repository root through its build script:
//
//	bash benchmark/run.sh --workload scale --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1                  # every workload in turn
//	bash benchmark/run.sh --seed 1 --trace 1        # per-layer metrics
//	bash benchmark/run.sh compare A1.json A2.json -- B1.json B2.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Results files (with every sample
// and envelope hash) go to .bench_build/results and traced runs' Chrome
// traces to .bench_build/trace. See README.md for the metrics, the
// workloads and why each was chosen.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// workloadDef is one workload and why the benchmark has it.
type workloadDef struct {
	Name string
	Why  string
	// SetupReps is how many times a run sets the product up; setup_s is
	// the median.
	SetupReps int
}

var workloads = []workloadDef{
	{"contest", "paper Table IV suite, paper plan: transient cascade and obstacle legalization dominate, construction is negligible", 9},
	{"scale", "5k-sink TI sample, CI scale plan: construction, evaluator arming and encode weigh next to a short cascade", 9},
	{"eco", "1% delta on the scale design: decode, restore and delta replay replace construction before the same cascade", 3},
	{"service", "open-loop HTTP mix of fresh, repeated and Monte Carlo jobs: cache, coalescing, scheduler and store", 9},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// childTimeout bounds one workload process, so a hung run still ends the
// benchmark inside its time limit.
const childTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case childArg:
			os.Exit(runChild(os.Args[2:]))
		case "compare":
			os.Exit(runCompare(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: contest, scale, eco, service, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "seconds each workload measures")
	trace := fs.Int("trace", 0, "1 records layer spans and reports the per-layer metrics")
	out := fs.String("out", "", "results file (default .bench_build/results/<workload>-seed<n>[-trace].json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var todo []workloadDef
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace takes 0 or 1")
		return 2
	}
	traced := *trace == 1
	file := resultsFile{Seed: *seed, Seconds: *seconds, Trace: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	for _, w := range todo {
		res, err := runWorkload(w, *seed, *seconds, traced, filepath.Join(".bench_build", "work"), filepath.Join(".bench_build", "trace"), fullSizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
			return 1
		}
		printResult(stdout, res, traced)
		file.Workloads = append(file.Workloads, *res)
	}
	path := *out
	if path == "" {
		suffix := ""
		if traced {
			suffix = "-trace"
		}
		path = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d%s.json", *name, *seed, suffix))
	}
	if err := writeResults(path, &file); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", path)
	line, err := json.Marshal(summaryLine(file.Workloads))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload run as the results file records it.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds the values behind the medians: the set-up times and
	// each operation's seconds (per key for library workloads).
	Samples   map[string][]float64 `json:"samples"`
	Summaries map[string]summary   `json:"summaries"`
	Envelopes map[string]string    `json:"envelopes"` // key -> sha256, elapsed zeroed
	Problems  []string             `json:"problems,omitempty"`
	Warnings  []string             `json:"warnings,omitempty"`
	SelfTimes []layerRow           `json:"self_times,omitempty"`
	OpTotalS  float64              `json:"op_total_s,omitempty"`
	TracePath string               `json:"trace_path,omitempty"`
}

// resultsFile is what one invocation writes.
type resultsFile struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	GoVersion  string           `json:"go_version"`
	Workloads  []workloadResult `json:"workloads"`
}

func writeResults(path string, f *resultsFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summaryLine folds the run's workloads into the result line; with more
// than one workload the metric names carry a "<workload>." prefix.
func summaryLine(rs []workloadResult) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range rs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(rs) > 1 {
				k = r.Workload + "." + k
			}
			line.Metrics[k] = v
		}
	}
	return line
}

// runWorkload generates the workload's inputs, times its set-up over
// several processes, runs the measuring process, checks its outputs and
// derives the metrics.
func runWorkload(w workloadDef, seed int64, seconds float64, traced bool, work, traceDir string, sz sizes) (*workloadResult, error) {
	dir, err := filepath.Abs(filepath.Join(work, w.Name))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in, err := genInputs(w.Name, seed, seconds, sz)
	if err != nil {
		return nil, err
	}
	if err := writeInputs(dir, in); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var setups []float64
	for i := 0; i < w.SetupReps; i++ {
		s, err := spawnChild(ctx, dir, seconds, traced, i < w.SetupReps-1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	data, err := os.ReadFile(filepath.Join(dir, reportFile))
	if err != nil {
		return nil, err
	}
	var rep childReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("read report: %w", err)
	}
	cr := checkRun(in, &rep, dir)
	res := &workloadResult{
		Workload:  w.Name,
		Correct:   len(cr.Problems) == 0,
		Attempted: len(rep.Ops),
		Failed:    cr.Failed,
		Metrics:   map[string]metricValue{},
		Samples:   map[string][]float64{"setup_s": setups},
		Envelopes: cr.Hashes,
		Problems:  cr.Problems,
		Warnings:  rep.Warnings,
	}
	if rep.RSSSource != "VmHWM" {
		res.Warnings = append(res.Warnings, "peak RSS read from "+rep.RSSSource+", which set-up also counts in")
	}
	for _, op := range rep.Ops {
		if op.Err == "" {
			k := "op_s." + op.Key
			if w.Name == "service" {
				k = "job_s"
			} else if op.Traced {
				k = "traced_op_s." + op.Key
			}
			res.Samples[k] = append(res.Samples[k], op.Seconds)
		}
	}
	res.Summaries = map[string]summary{}
	for k, xs := range res.Samples {
		res.Summaries[k] = summarize(xs)
	}
	if !traced {
		runS := opSeconds(rep.Ops, func(opRecord) bool { return true })
		if w.Name == "service" {
			runS = median(res.Samples["job_s"])
		}
		res.Metrics["setup_s"] = metricValue{median(setups), "s"}
		res.Metrics["run_s"] = metricValue{runS, "s"}
		res.Metrics["peak_rss_mb"] = metricValue{rep.PeakRSSMB, "MiB"}
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{rep.Layers[m.Name], m.Unit}
	}
	res.SelfTimes, res.OpTotalS = rep.SelfTimes, rep.OpTotalS
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	res.TracePath = filepath.Join(traceDir, w.Name+".json")
	if err := os.Rename(filepath.Join(dir, traceFile), res.TracePath); err != nil {
		return nil, err
	}
	return res, nil
}

// spawnChild starts one workload process and returns its set-up time: from
// just before the exec to its ready line, less the time it spent reading
// its input files. A set-up-only process exits after the ready line; the
// measuring one writes its report before exiting.
func spawnChild(ctx context.Context, dir string, seconds float64, traced, setupOnly bool) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, childArg, "-dir", dir,
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(traced), "-setup-only="+strconv.FormatBool(setupOnly))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var ready readyLine
	sc := bufio.NewScanner(stdout)
	if sc.Scan() {
		err = json.Unmarshal(sc.Bytes(), &ready)
	}
	setup := time.Since(t0).Seconds() - ready.HarnessS
	_, _ = io.Copy(io.Discard, stdout) // drain until the child exits
	if werr := cmd.Wait(); werr != nil {
		return 0, fmt.Errorf("workload process: %w", werr)
	}
	if err != nil || !ready.Ready {
		return 0, errors.Join(errors.New("workload process sent no ready line"), err)
	}
	return setup, nil
}

// printResult writes one workload's metrics, problems and, for a traced
// run, its self-time table.
func printResult(w io.Writer, r *workloadResult, traced bool) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	keys := make([]string, 0, len(r.Summaries))
	for k := range r.Summaries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := r.Summaries[k]
		fmt.Fprintf(w, "  %-26s n=%d median=%.4g q1=%.4g q3=%.4g", k, s.N, s.Median, s.Q1, s.Q3)
		if s.TailPct > 0 {
			fmt.Fprintf(w, " p%g=%.4g", s.TailPct, s.Tail)
		}
		fmt.Fprintln(w)
	}
	if traced {
		fmt.Fprintf(w, "  self time by span (trace %s):\n", r.TracePath)
		printLayerTable(w, r.SelfTimes, r.OpTotalS)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, p := range r.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", p)
	}
}
