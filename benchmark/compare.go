package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runCompare implements `compare <setA...> -- <setB...>`: it reads two
// sets of results files, and for every (workload, metric) both sets report
// prints each set's median and quartile spread, B's change against A in
// the metric's bad direction, the metric's bound and a verdict. It exits 1
// when any row regressed.
func runCompare(args []string, w io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: compare <results.json>... -- <results.json>...")
		return 2
	}
	a, err := loadSet(args[:split])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, err := loadSet(args[split+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rows := compareSets(a, b)
	fmt.Fprintf(w, "%-8s %-26s %-6s %12s %7s %12s %7s %8s %7s  %s\n",
		"workload", "metric", "unit", "A median", "A iqr%", "B median", "B iqr%", "worse%", "bound%", "verdict")
	code := 0
	for _, r := range rows {
		bound := "-"
		if r.def.Bound > 0 {
			bound = fmt.Sprintf("%.1f", 100*r.def.Bound)
		}
		fmt.Fprintf(w, "%-8s %-26s %-6s %12.6g %7.1f %12.6g %7.1f %8.1f %7s  %s (n=%d/%d)\n",
			r.workload, r.def.Name, r.def.Unit, median(r.a), 100*spread(r.a), median(r.b), 100*spread(r.b),
			100*r.worse, bound, r.verdict, len(r.a), len(r.b))
		if r.verdict == verdictRegressed {
			code = 1
		}
	}
	return code
}

// sample is every value one set reports for each workload and metric.
type sample map[string]map[string][]float64

func loadSet(paths []string) (sample, error) {
	s := sample{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, wr := range f.Workloads {
			if s[wr.Workload] == nil {
				s[wr.Workload] = map[string][]float64{}
			}
			for name, v := range wr.Metrics {
				s[wr.Workload][name] = append(s[wr.Workload][name], v.Value)
			}
		}
	}
	return s, nil
}

type compareRow struct {
	workload string
	def      metricDef
	a, b     []float64
	worse    float64
	verdict  string
}

// compareSets pairs the two sets' values in workload and metric-table
// order.
func compareSets(a, b sample) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, tab := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range tab {
				va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				worse, v := verdict(m, va, vb)
				rows = append(rows, compareRow{w.Name, m, va, vb, worse, v})
			}
		}
	}
	return rows
}
