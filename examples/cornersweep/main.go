// Corner sweep: synthesize one benchmark under each built-in PVT corner
// set — the contest pair, the five-corner envelope, and a Monte Carlo
// variation sample — and compare the envelope each one reports. This is
// the single-process version of what `POST /api/v1/batches` with a
// `sweep.corners` axis fans out across the service's worker pool; swap
// the named benchmark for a benchgen-generated .cns file to analyze a
// synthetic instance.
package main

import (
	"fmt"
	"log"

	"contango"
)

func main() {
	b, err := contango.Benchmark("ispd09f21")
	if err != nil {
		log.Fatal(err)
	}
	// Trim for example runtime: 8 sinks per corner with a proportionally
	// reduced capacitance budget, and the cascade cut to two rounds per
	// pass without convergence cycles.
	b.CapLimit *= 8.0 / float64(len(b.Sinks))
	b.Sinks = b.Sinks[:8]

	for _, spec := range []string{"ispd09", "pvt5", "mc:16:7"} {
		res, err := contango.Synthesize(b, contango.Options{Corners: spec, Plan: "tbsz:2,twsz:2,twsn:2,bwsn:2"})
		if err != nil {
			log.Fatal(err)
		}
		m := res.Final
		fmt.Printf("%-8s %d corners: clr=%.2fps spread=%.2fps worst=%s\n",
			spec, len(m.PerCorner), m.CLR, m.CLRSpread, m.WorstCorner)
		if m.MCSamples > 0 {
			fmt.Printf("         yield=%.0f%% over %d samples, latency p50=%.1fps p95=%.1fps\n",
				100*m.Yield, m.MCSamples, m.LatP50, m.LatP95)
		}
	}
}
