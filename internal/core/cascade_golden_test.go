package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"contango/internal/bench"
	"contango/internal/ctree/ctreetest"
	"contango/internal/eco"
)

// cascadeGoldenPath holds one "<case> <sha256>" line per cascade case: the
// SHA-256 of the case's EncodeResult envelope with Elapsed, StageSims and
// StageReuses zeroed. The envelope carries Runs, so the digests pin the
// optimization cascade (tbsz, twsz, twsn, bwsn and the convergence cycles)
// and its evaluation count bit for bit, whatever the evaluator's caches
// serve.
const cascadeGoldenPath = "testdata/cascade.golden"

// cascadeWorkPath holds one "<case> transients=<n>,sims=<m>" line per
// cascade case: the edge transients the cascade's evaluations stand for
// (StageSims + StageReuses) and how many of them were integrated. The
// first is a property of the cascade; the second moves only when the
// evaluator's caching does.
const cascadeWorkPath = "testdata/cascade_work.golden"

// cascadeSinks trims the ISPD'09 designs for the paper-plan cases to their
// first n sinks (zero keeps the full design), so the whole golden stays
// within about ten seconds of tier-1 wall time on two cores.
var cascadeSinks = map[string]int{
	"ispd09f11":  48,
	"ispd09f12":  48,
	"ispd09f21":  48,
	"ispd09f22":  0,
	"ispd09f31":  32,
	"ispd09f32":  32,
	"ispd09fnb1": 48,
}

// cascadeCase is one cascade golden case: a benchmark and the options to
// synthesize it with. Parallelism is set by the runner.
type cascadeCase struct {
	name  string
	bench func(t *testing.T) *bench.Benchmark
	opts  func(t *testing.T) Options
}

// ispdCascadeCase runs one ISPD'09 design trimmed to its first n sinks
// (n = 0 keeps the full design).
func ispdCascadeCase(name string, n int, prefix string, o Options) cascadeCase {
	return cascadeCase{
		name: prefix + name,
		bench: func(t *testing.T) *bench.Benchmark {
			if n > 0 {
				return trimmedISPD(t, name, n)
			}
			b, err := bench.ISPD09(name)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		opts: func(*testing.T) Options { return o },
	}
}

// ecoCascadeCases runs the eco plan on three generated 5% deltas of a
// small TI sample, each against the same base run (synthesized once, on
// first use, and only read afterwards).
func ecoCascadeCases() []cascadeCase {
	ti := bench.NewTIPool().Sample(120, 3)
	base := sync.OnceValues(func() (*Result, error) {
		return Synthesize(ti, Options{FastSim: true, LargeInverters: true,
			Plan: "zst,legalize,buffer,polarity,twsz:1,twsn:1,bwsn:1"})
	})
	var cases []cascadeCase
	for i, seed := range []int64{11, 12, 13} {
		d, err := eco.Generate(ti, 0.05, seed)
		if err != nil {
			panic(err)
		}
		cases = append(cases, cascadeCase{
			name: fmt.Sprintf("eco/ti120/delta%d", i),
			bench: func(t *testing.T) *bench.Benchmark {
				p, err := d.Perturb(ti)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			opts: func(t *testing.T) Options {
				b, err := base()
				if err != nil {
					t.Fatal(err)
				}
				return Options{FastSim: true, LargeInverters: true, Plan: "eco", ECO: &eco.Spec{
					BaseKey: "base", Delta: d, Base: b.Tree, Composite: b.Composite,
				}}
			},
		})
	}
	return cases
}

func cascadeCases() []cascadeCase {
	var cases []cascadeCase
	for _, name := range bench.ISPD09Names() {
		cases = append(cases, ispdCascadeCase(name, cascadeSinks[name], "paper/", Options{FastSim: true}))
	}
	cases = append(cases,
		ispdCascadeCase("ispd09f22", 48, "corners/pvt5/", Options{FastSim: true, Corners: "pvt5", Plan: "fast"}),
		ispdCascadeCase("ispd09f22", 48, "corners/mc:4:1/", Options{FastSim: true, Corners: "mc:4:1", Plan: "fast"}),
		ispdCascadeCase("ispd09f12", 32, "full-eval/", Options{FastSim: true, WrapEval: wholeTree}),
		// Full accuracy: the default engine (1 ps steps, 100 µm segments).
		ispdCascadeCase("ispd09f22", 32, "full-accuracy/paper/", Options{}),
		ispdCascadeCase("ispd09f12", 32, "full-accuracy/pvt5/", Options{Corners: "pvt5", Plan: "fast"}),
	)
	return append(cases, ecoCascadeCases()...)
}

// TestCascadeGolden pins the optimization cascade: the paper plan on every
// ISPD'09 design (trimmed, see cascadeSinks), the pvt5 and Monte Carlo
// corner sets, the eco plan on three deltas, the whole-tree reference
// evaluator, and two full-accuracy cases at the default engine settings.
// Each case runs serially and at GOMAXPROCS workers; the two envelopes and
// the two work counts must be identical before they are compared with the
// golden files. The whole-tree reference keeps no stage cache, so its work
// line reads zero.
func TestCascadeGolden(t *testing.T) {
	ctreetest.RequireAMD64(t)
	golden := ctreetest.Golden(t, cascadeGoldenPath)
	work := ctreetest.Golden(t, cascadeWorkPath)
	for _, tc := range cascadeCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var envs [2][]byte
			var counts [2]string
			for k, par := range []int{1, runtime.GOMAXPROCS(0)} {
				o := tc.opts(t)
				o.Parallelism = par
				res, err := Synthesize(tc.bench(t), o)
				if err != nil {
					t.Fatal(err)
				}
				counts[k] = fmt.Sprintf("transients=%d,sims=%d", res.StageSims+res.StageReuses, res.StageSims)
				res.StageSims, res.StageReuses = 0, 0
				envs[k] = encodeEnvelope(t, res)
			}
			if !bytes.Equal(envs[0], envs[1]) {
				t.Fatalf("envelope at parallelism 1 differs from parallelism %d", runtime.GOMAXPROCS(0))
			}
			if counts[0] != counts[1] {
				t.Fatalf("work at parallelism 1 (%s) differs from parallelism %d (%s)", counts[0], runtime.GOMAXPROCS(0), counts[1])
			}
			if o := tc.opts(t); o.WrapEval != nil {
				// The whole-tree reference must agree with the incremental
				// engine in everything but the cache's work counters.
				o.WrapEval = nil
				res, err := Synthesize(tc.bench(t), o)
				if err != nil {
					t.Fatal(err)
				}
				res.StageSims, res.StageReuses = 0, 0
				if !bytes.Equal(envs[0], encodeEnvelope(t, res)) {
					t.Fatal("whole-tree envelope differs from the incremental engine's")
				}
			}
			sum := sha256.Sum256(envs[0])
			ctreetest.Check(t, golden, tc.name, hex.EncodeToString(sum[:]))
			ctreetest.Check(t, work, tc.name, counts[0])
		})
	}
}
