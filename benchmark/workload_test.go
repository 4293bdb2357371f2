package main

import (
	"os"
	"path/filepath"
	"testing"
)

// tinySizes shrink every workload so the whole set smoke-runs in seconds.
var tinySizes = sizes{
	Contest:      []string{"ispd09f22"},
	ScaleSinks:   150,
	ECOFrac:      0.05,
	ECODeltas:    2,
	Rate:         5,
	FreshSinks:   [2]int{10, 20},
	SweepSinks:   8,
	SweepCorners: 17,
}

// TestMain lets the test binary serve as the workload process that
// runWorkload spawns.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(runChild(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload in process at tiny sizes and
// requires the checker to pass all of its outputs.
func TestWorkloadsSmoke(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			in, err := genInputs(w.Name, 1, 2, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeInputs(dir, in); err != nil {
				t.Fatal(err)
			}
			if in, err = readInputs(dir); err != nil {
				t.Fatal(err)
			}
			p, err := newWorkload(in, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer p.close()
			if err := p.setup(); err != nil {
				t.Fatal(err)
			}
			rep, err := p.measure(0, false)
			if err != nil {
				t.Fatal(err)
			}
			cr := checkRun(in, rep, dir)
			if len(cr.Problems) > 0 || cr.Failed > 0 {
				t.Fatalf("checker: %d failed, problems %v", cr.Failed, cr.Problems)
			}
			if len(rep.Ops) == 0 || len(cr.Hashes) == 0 || rep.PeakRSSMB <= 0 {
				t.Errorf("ops=%d envelopes=%d peak=%v: nothing measured", len(rep.Ops), len(cr.Hashes), rep.PeakRSSMB)
			}
		})
	}
}

// TestRunWorkloadTraced drives one traced workload through the set-up and
// measuring processes and checks the reported per-layer metrics.
func TestRunWorkloadTraced(t *testing.T) {
	t.Parallel()
	work := t.TempDir()
	w, _ := workloadByName("eco")
	res, err := runWorkload(w, 1, 0, true, filepath.Join(work, "work"), filepath.Join(work, "trace"), tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*tinySizes.ECODeltas {
		t.Fatalf("correct=%v failed=%d attempted=%d problems=%v", res.Correct, res.Failed, res.Attempted, res.Problems)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want every per-layer metric (%d)", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"core.decode_s", "eco.apply_s", "flow.arm_s", "spice.cne_s", "opt.twsn_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on eco", name, res.Metrics[name].Value)
		}
	}
	if cov := res.Metrics["trace.coverage_pct"].Value; cov < 90 {
		t.Errorf("layer self times cover %.1f%% of the operation, want >= 90%%", cov)
	}
	if len(res.Samples["setup_s"]) != w.SetupReps {
		t.Errorf("%d set-up samples, want %d", len(res.Samples["setup_s"]), w.SetupReps)
	}
	if _, err := os.Stat(res.TracePath); err != nil {
		t.Errorf("no Chrome trace: %v", err)
	}
}
