// Package contango is a clock-tree synthesizer for SoCs: a Go reproduction
// of "CONTANGO: Integrated Optimization of SoC Clock Networks" (Dongjin Lee
// and Igor L. Markov, DATE 2010).
//
// The flow builds a zero-skew DME tree over the clock sinks, repairs
// obstacle violations (rerouting and contour detours), inserts composite
// inverters within a capacitance budget, corrects sink polarity with the
// paper's provably-minimal algorithm, and then runs a cascade of
// accurate-simulation-driven optimizations — buffer sizing, wiresizing,
// wiresnaking and bottom-level fine-tuning — until skew and clock latency
// range stop improving.
//
// Quick start:
//
//	b, _ := contango.Benchmark("ispd09f22")
//	res, err := contango.Synthesize(b, contango.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Final) // skew, CLR, latency, slew, capacitance
//
// Batches of runs go through the concurrent synthesis service — a worker
// pool with a content-addressed result cache and in-flight deduplication:
//
//	svc := contango.NewService(contango.ServiceConfig{Workers: 4})
//	defer svc.Close()
//	jobs, _ := svc.SubmitBatch(contango.ISPD09Requests(contango.Options{}))
//	results, err := contango.WaitJobs(context.Background(), jobs)
//
// With ServiceConfig.DataDir set (use OpenService to catch setup errors)
// the service is durable: finished results, job logs and SVG renderings
// persist in a content-addressed on-disk store (internal/store), a job
// journal records every submission, and a restarted service replays it —
// finished jobs become disk-backed cache hits, unfinished ones are
// re-queued and run again. EncodeResult/DecodeResult expose the same
// result serialization for library users managing their own storage.
//
// The same service powers the contangod HTTP server (cmd/contangod).
//
// The library is self-contained: it includes its own technology model
// (tech), RC netlist extraction and closed-form evaluators (analysis), a
// transient circuit simulator standing in for SPICE (spice), synthetic
// reconstructions of the ISPD'09 contest and Texas Instruments benchmark
// suites (bench), and an SVG renderer (viz). See README.md for a
// quickstart covering the library, the CLI and the server.
package contango

import (
	"context"
	"io"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/corners"
	"contango/internal/eval"
	"contango/internal/service"
)

// Options re-exports the synthesis configuration. The zero value gives the
// paper's contest setup: 45 nm technology, batches of 8 small inverters,
// 10% capacitance reserve, transient-checked optimization rounds — with
// the incremental evaluation engine on and its stage simulations spread
// over all CPUs (Options.Parallelism; Options.FullEval restores the
// whole-tree reference path, identical results, much slower). Options.Plan
// selects the synthesis pipeline: a built-in plan name (PlanNames) or a
// plan-spec string (ValidatePlan documents the grammar). Options.Corners
// selects the PVT corner set (CornerSetNames / ValidateCorners): the
// default "ispd09" pair, the "pvt5" envelope, or "mc:<n>:<seed>" Monte
// Carlo variation samples with yield/quantile reporting.
type Options = core.Options

// StageRecord is one per-stage metric record (a Table III row).
type StageRecord = core.StageRecord

// Result is the outcome of a synthesis run, including the final tree,
// per-stage metric records (the paper's Table III rows) and counters.
type Result = core.Result

// Metrics bundles skew, clock latency range, latency, slew and capacitance.
type Metrics = eval.Metrics

// Benchmark returns a named synthetic benchmark: one of the ISPD'09 suite
// ("ispd09f11" … "ispd09fnb1").
func Benchmark(name string) (*bench.Benchmark, error) { return bench.ISPD09(name) }

// BenchmarkNames lists the ISPD'09-style suite in order.
func BenchmarkNames() []string { return bench.ISPD09Names() }

// ReadBenchmark parses a benchmark from the library's text format.
func ReadBenchmark(r io.Reader) (*bench.Benchmark, error) { return bench.Read(r) }

// WriteBenchmark serializes a benchmark to the library's text format.
func WriteBenchmark(w io.Writer, b *bench.Benchmark) error { return bench.Write(w, b) }

// Synthesize runs the full Contango flow on a benchmark.
func Synthesize(b *bench.Benchmark, o Options) (*Result, error) { return core.Synthesize(b, o) }

// PlanNames lists the built-in synthesis plans: "paper" (the default — the
// paper's exact flow), "fast" (reduced round budgets, no convergence
// cycles), "wire-only", "tune-only", and "no-cycles".
func PlanNames() []string { return core.PlanNames() }

// ValidatePlan checks a plan name or plan-spec string without running it.
// The spec grammar is a comma-separated pass list, each pass optionally
// carrying a round budget and a gate predicate, with convergence groups:
//
//	zst,legalize,buffer,polarity,tbsz:8,cycle(twsz,twsn,bwsn)x3,bwsn?skew>5
//
// Specs that name no construction pass get the construction prelude
// (zst,legalize,buffer,polarity) prepended, so "tbsz:2,twsz" is a complete
// plan. See core.ParsePlan for the full grammar.
func ValidatePlan(nameOrSpec string) error {
	_, err := core.ResolvePlan(nameOrSpec)
	return err
}

// CornerSetNames lists the built-in PVT corner sets: "ispd09" (the default
// — the technology's native fast/slow pair, bit-identical to the
// pre-corner-set engine) and "pvt5" (a five-corner PVT envelope). Monte
// Carlo sets are spelled as specs: "mc:<n>:<seed>[:vsigma[:rsigma[:csigma]]]"
// draws n deterministic variation samples of (Vdd, R, C).
func CornerSetNames() []string { return corners.Names() }

// ValidateCorners checks a corner-set spec without running it. The empty
// spec is valid and means the default set. Options.Corners selects the
// set for a run; identical specs content-address identically, so Monte
// Carlo runs are reproducible and cacheable.
func ValidateCorners(spec string) error { return corners.Validate(spec) }

// SynthesizeContext runs the full flow honoring ctx: cancellation is
// checked between stages and before every optimization round, so a killed
// run stops consuming simulator invocations promptly.
func SynthesizeContext(ctx context.Context, b *bench.Benchmark, o Options) (*Result, error) {
	return core.SynthesizeContext(ctx, b, o)
}

// Service is the concurrent synthesis service: a worker pool running jobs
// with content-addressed result caching and in-flight deduplication. Use
// its Submit/SubmitBatch methods and the jobs' Wait.
type Service = service.Service

// ServiceConfig tunes a Service (worker-pool size, cache capacity, queue
// depth).
type ServiceConfig = service.Config

// Job is one tracked synthesis run inside a Service.
type Job = service.Job

// SynthesisRequest is one unit of a batch submission.
type SynthesisRequest = service.Request

// ServiceStats is a snapshot of service counters.
type ServiceStats = service.Stats

// NewService starts a synthesis service with the given configuration.
// Close it when done. For configurations with ServiceConfig.DataDir set,
// prefer OpenService: NewService panics if the durable store cannot be
// initialized.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenService starts a synthesis service, surfacing durable-store
// initialization errors (unwritable ServiceConfig.DataDir, …). Stop it
// with Close, or Shutdown for a graceful drain that journals unfinished
// jobs for the next start.
func OpenService(cfg ServiceConfig) (*Service, error) { return service.Open(cfg) }

// EncodeResult serializes a synthesis result in the durable store's
// self-contained format (benchmark, technology, full tree, metric
// history); DecodeResult round-trips it exactly.
func EncodeResult(w io.Writer, res *Result) error { return core.EncodeResult(w, res) }

// DecodeResult parses a result written by EncodeResult, revalidating the
// rebuilt clock tree.
func DecodeResult(r io.Reader) (*Result, error) { return core.DecodeResult(r) }

// ISPD09Requests builds one batch request per ISPD'09 suite benchmark.
func ISPD09Requests(o Options) []SynthesisRequest { return service.ISPD09Requests(o) }

// WaitJobs waits for every job and returns their results in order.
func WaitJobs(ctx context.Context, jobs []*Job) ([]*Result, error) {
	return service.WaitAll(ctx, jobs)
}

// BaselineKind selects a contest-style comparison flow.
type BaselineKind = core.BaselineKind

// Baseline flow kinds (see core documentation).
const (
	BaselineNoOpt  = core.BaselineNoOpt
	BaselineGreedy = core.BaselineGreedy
	BaselineBST    = core.BaselineBST
)

// SynthesizeBaseline runs a one-shot baseline flow (no optimization
// cascade), used for Table IV-style comparisons.
func SynthesizeBaseline(b *bench.Benchmark, kind BaselineKind, o Options) (*Result, error) {
	return core.SynthesizeBaseline(b, kind, o)
}

// RenderSVG writes the result's clock tree as an SVG in the style of the
// paper's Figure 3, with wires colored by slow-down slack.
func RenderSVG(w io.Writer, res *Result) error { return core.RenderSVG(w, res) }
