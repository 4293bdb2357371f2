// Evaluators example: the paper's Section III-A argument made concrete.
// Closed-form models (Elmore, two-pole) disagree with accurate transient
// simulation by tens of picoseconds — far more than the few-ps skew target —
// which is why Contango drives its optimization loop with accurate runs.
package main

import (
	"fmt"
	"log"

	"contango/internal/analysis"
	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/spice"
)

func main() {
	b, err := bench.ISPD09("ispd09f22")
	if err != nil {
		log.Fatal(err)
	}
	b.Sinks = b.Sinks[:30]
	res, err := core.SynthesizeBaseline(b, core.BaselineNoOpt, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	tr := res.Tree
	corner := tr.Arena().Tech.Reference()

	evaluators := []analysis.Evaluator{&analysis.Elmore{}, &analysis.TwoPole{}, spice.New()}
	results := map[string]*analysis.Result{}
	for _, e := range evaluators {
		r, err := e.Evaluate(tr, corner)
		if err != nil {
			log.Fatal(err)
		}
		results[e.Name()] = r
	}
	ref := results["transient"]
	fmt.Println("per-evaluator skew and worst |error| vs transient simulation:")
	for _, name := range []string{"elmore", "twopole", "transient"} {
		r := results[name]
		worst := 0.0
		for _, id := range tr.Arena().Sinks() {
			if d := r.Rise[id] - ref.Rise[id]; d < 0 {
				d = -d
				if d > worst {
					worst = d
				}
			} else if d > worst {
				worst = d
			}
		}
		fmt.Printf("  %-10s skew %7.2f ps   worst sink-latency error %6.2f ps\n",
			name, r.Skew(), worst)
	}
	fmt.Println("\na 5 ps error is 1% of a 500 ps latency but 50% of a 10 ps skew (paper, Section III-A)")
}
