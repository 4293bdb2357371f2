package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func marshalInputs(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	in, err := genInputs(workload, seed, 4, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestInputsDeterministic requires equal seeds to give byte-identical
// bench text, delta text and arrival schedules, and different seeds to give
// different ones wherever the workload draws from the seed.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := marshalInputs(t, w.Name, 7), marshalInputs(t, w.Name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", w.Name)
		}
		other := marshalInputs(t, w.Name, 8)
		// The contest suite is the paper's fixed Table IV set.
		if same := bytes.Equal(bytes.Replace(a, []byte(`"seed":7`), []byte(`"seed":8`), 1), other); same != (w.Name == "contest") {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs = %v", w.Name, same)
		}
	}
}

func TestServiceScheduleMix(t *testing.T) {
	in, err := genInputs("service", 3, 20, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Schedule) != 50 {
		t.Fatalf("%d arrivals in 20 s at %g/s, want 50", len(in.Schedule), fullSizes.Rate)
	}
	kinds := map[string]int{}
	last := -1.0
	for _, a := range in.Schedule {
		kinds[a.Kind]++
		if a.At < last || a.At >= 20 {
			t.Fatalf("arrival at %v after %v: schedule not ordered inside the window", a.At, last)
		}
		last = a.At
	}
	if kinds["fresh"] != 35 || kinds["resubmit"] != 10 || kinds["sweep"] != 5 {
		t.Errorf("mix %v, want 35 fresh, 10 resubmit, 5 sweep", kinds)
	}
}
