package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables the benchmark reports from in lockstep.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, tables say %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, tables have %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, table says %s: %s", i, f.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) || len(f.Command) == 0 || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", f.Command, f.Paths, f.RunSeconds)
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricTablesWellFormed checks the limits a benchmark definition must
// respect: unique well-formed names and units, bounds of at most 25% with
// set-up time's the largest.
func TestMetricTablesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if seen[m.Name] || !metricName.MatchString(m.Name) || !metricUnit.MatchString(m.Unit) {
				t.Errorf("bad or repeated metric %+v", m)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, w := range workloads {
		if seen[w.Name] || !metricName.MatchString(w.Name) || len(w.Why) > 200 || w.SetupReps < 1 {
			t.Errorf("bad workload %+v", w)
		}
	}
}
