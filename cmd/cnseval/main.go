// Command cnseval runs a single Clock-Network Evaluation on a benchmark
// using one of the construction flows, without the optimization cascade —
// useful for judging constructions quickly or comparing evaluator models.
//
//	cnseval -bench ispd09f22 -flow noopt
//	cnseval -bench path/to/file.cns -flow greedy -models
package main

import (
	"flag"
	"fmt"
	"os"

	"contango/internal/analysis"
	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/eval"
	"contango/internal/spice"
)

func main() {
	name := flag.String("bench", "ispd09f22", "named benchmark or .cns file")
	flow := flag.String("flow", "noopt", "construction: noopt, greedy, bst")
	models := flag.Bool("models", false, "also compare Elmore / two-pole / transient per-sink latencies")
	flag.Parse()

	b, err := load(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var kind core.BaselineKind
	switch *flow {
	case "noopt":
		kind = core.BaselineNoOpt
	case "greedy":
		kind = core.BaselineGreedy
	case "bst":
		kind = core.BaselineBST
	default:
		fmt.Fprintln(os.Stderr, "unknown flow", *flow)
		os.Exit(1)
	}
	res, err := core.SynthesizeBaseline(b, kind, core.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s (%s construction): %s\n", b.Name, *flow, res.Final)

	if *models {
		tr := res.Tree
		a := tr.Arena()
		corner := a.Tech.Reference()
		evals := []analysis.Evaluator{&analysis.Elmore{}, &analysis.TwoPole{}, spice.New()}
		var rows [][]string
		sinks := a.Sinks()
		if len(sinks) > 8 {
			sinks = sinks[:8]
		}
		results := map[string]*analysis.Result{}
		for _, e := range evals {
			r, err := e.Evaluate(tr, corner)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			results[e.Name()] = r
		}
		for _, s := range sinks {
			rows = append(rows, []string{
				a.Name[s],
				fmt.Sprintf("%.1f", results["elmore"].Rise[int(s)]),
				fmt.Sprintf("%.1f", results["twopole"].Rise[int(s)]),
				fmt.Sprintf("%.1f", results["transient"].Rise[int(s)]),
			})
		}
		fmt.Println("\nPer-sink rising latency (ps) by evaluator:")
		fmt.Println(eval.Table([]string{"sink", "elmore", "twopole", "transient"}, rows))
	}
}

func load(name string) (*bench.Benchmark, error) {
	if b, err := bench.ISPD09(name); err == nil {
		return b, nil
	}
	b, err := bench.Load(name)
	if err != nil {
		return nil, fmt.Errorf("not a named benchmark: %w", err)
	}
	return b, nil
}
