// Scale harness: the million-sink-class benchmark CI gates. The large-
// instance data path is timed phase by phase — streaming load of a generated
// TI-scale case, arena-native DME construction, arena buffering, the batched
// multi-corner closed-form kernels, and the result codec's encode and decode — and
// every phase reports its own peak RSS next to the standard ns/B/allocs
// columns so a memory blowup fails the bench gate rather than only the CI
// runner. A gated full-million construction row measures the top of the
// curve.
package contango

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"contango/internal/analysis"
	"contango/internal/bench"
	"contango/internal/buffering"
	"contango/internal/core"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/eco"
	"contango/internal/tech"
)

// scaleSinks is the CI size: large enough that per-node constant factors
// dominate (the regime the arena layout targets), small enough to finish a
// -benchtime=1x run in a normal CI slot. The generator streams any size up
// to a million and beyond; the gated "1M" row below measures the full curve.
const scaleSinks = 250_000

// millionSinks is the gated top-of-curve size (set CONTANGO_SCALE_1M=1).
const millionSinks = 1_000_000

// reportPeakRSS reports the phase's peak RSS; each phase's b.Run is
// preceded by resetPeakRSS, so the figure covers that phase alone.
func reportPeakRSS(b *testing.B) {
	if rss := peakRSSMB(); rss > 0 {
		b.ReportMetric(rss, "peak-rss-MB")
	}
}

func BenchmarkMillionSink(b *testing.B) {
	path := filepath.Join(b.TempDir(), "ti-scale.cns")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := bench.GenerateTIScale(f, scaleSinks, 1); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	tk := tech.Default45()
	cs, err := corners.Build("pvt5", tk)
	if err != nil {
		b.Fatal(err)
	}
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}

	// Later phases reuse the previous phase's last output, so each
	// sub-benchmark times exactly one phase of the pipeline. When -bench
	// filters skip an earlier phase its fixture is rebuilt untimed.
	var bm *bench.Benchmark
	resetPeakRSS()
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bm, err = bench.Load(path)
			if err != nil {
				b.Fatal(err)
			}
			if len(bm.Sinks) != scaleSinks {
				b.Fatalf("loaded %d sinks, want %d", len(bm.Sinks), scaleSinks)
			}
		}
		reportPeakRSS(b)
	})
	if bm == nil {
		if bm, err = bench.Load(path); err != nil {
			b.Fatal(err)
		}
	}

	// DME builds straight into the SoA arena (the product path); slots are
	// reserved up front from the sink count, so construction is near
	// allocation-free per node.
	var built *ctree.Arena
	resetPeakRSS()
	b.Run("dme", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			built = dme.BuildZSTArena(tk, bm.Source, bm.Sinks, dme.Options{})
			built.SourceR = bm.SourceR
		}
		reportPeakRSS(b)
	})
	if built == nil {
		built = dme.BuildZSTArena(tk, bm.Source, bm.Sinks, dme.Options{})
		built.SourceR = bm.SourceR
	}

	// The buffering row times one BalancedInsertArena with a fixed
	// composite, not the composite sweep the flow's buffer pass runs;
	// BenchmarkCompositeSweep times that.
	var buffered *ctree.Arena
	resetPeakRSS()
	b.Run("buffering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			work := built.Clone()
			b.StartTimer()
			if _, err := buffering.BalancedInsertArena(work, comp, buffering.Options{}); err != nil {
				b.Fatal(err)
			}
			buffered = work
		}
		reportPeakRSS(b)
	})
	if buffered == nil {
		buffered = built.Clone()
		if _, err := buffering.BalancedInsertArena(buffered, comp, buffering.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	buffered.Compact()
	tr := ctree.NewTree(buffered)

	resetPeakRSS()
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Batched closed-form evaluation: all five corners in one
			// topology sweep (transient simulation is the small-instance
			// tool; at this size the closed-form kernels are the product
			// path).
			e := &analysis.Elmore{}
			rs, err := e.EvaluateCorners(tr, cs.Corners)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs) != len(cs.Corners) {
				b.Fatalf("%d corner results, want %d", len(rs), len(cs.Corners))
			}
			for k, r := range rs {
				if len(r.Rise) != scaleSinks {
					b.Fatalf("corner %d: %d arrivals, want %d", k, len(r.Rise), scaleSinks)
				}
			}
		}
		reportPeakRSS(b)
	})

	// The codec rows time the result envelope of the buffered 250k-sink
	// tree (benchmark text plus the slot-by-slot node table): EncodeResult
	// writes it, DecodeResult reads it back into an arena and validates it
	// — what the durable store and an ECO base restore pay.
	res := &core.Result{Benchmark: bm, Tree: tr}
	var env []byte
	resetPeakRSS()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := core.EncodeResult(&buf, res); err != nil {
				b.Fatal(err)
			}
			env = buf.Bytes()
		}
		reportPeakRSS(b)
	})
	if env == nil {
		var buf bytes.Buffer
		if err := core.EncodeResult(&buf, res); err != nil {
			b.Fatal(err)
		}
		env = buf.Bytes()
	}

	resetPeakRSS()
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := core.DecodeResult(bytes.NewReader(env))
			if err != nil {
				b.Fatal(err)
			}
			if n := got.Tree.Arena().NumNodes(); n != buffered.NumNodes() {
				b.Fatalf("decoded %d nodes, want %d", n, buffered.NumNodes())
			}
		}
		reportPeakRSS(b)
	})

	// The top-of-curve row: stream-generate and arena-build the full
	// million-sink case. Gated because generation plus construction is too
	// slow for every CI bench pass; the scale-smoke job runs it under
	// GOMEMLIMIT, where peak RSS growing sub-linearly vs the 250k phases is
	// the acceptance signal.
	resetPeakRSS()
	b.Run("1M", func(b *testing.B) {
		if os.Getenv("CONTANGO_SCALE_1M") == "" {
			b.Skip("set CONTANGO_SCALE_1M=1 to run the full million-sink construction row")
		}
		mpath := filepath.Join(b.TempDir(), "ti-scale-1m.cns")
		mf, err := os.Create(mpath)
		if err != nil {
			b.Fatal(err)
		}
		if err := bench.GenerateTIScale(mf, millionSinks, 1); err != nil {
			b.Fatal(err)
		}
		if err := mf.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mbm, err := bench.Load(mpath)
			if err != nil {
				b.Fatal(err)
			}
			a := dme.BuildZSTArena(tk, mbm.Source, mbm.Sinks,
				dme.Options{Parallelism: runtime.GOMAXPROCS(0)})
			a.SourceR = mbm.SourceR
			if a.NumNodes() < millionSinks {
				b.Fatalf("arena holds %d nodes, want >= %d", a.NumNodes(), millionSinks)
			}
		}
		reportPeakRSS(b)
	})
}

// BenchmarkECO gates the incremental re-synthesis claim at CI scale: a 1%
// perturbation of the 250k-sink case is replayed through the locality-
// scoped ECO repair ("eco" row) and re-synthesized from scratch ("full"
// row), and the eco row reports the full/eco ratio as a custom metric the
// bench gate holds at >= 10x. Both rows time construction only — the first
// multi-corner evaluation costs the same on either path (the evaluator
// starts cold either way), so including it would only dilute the ratio the
// ECO path is responsible for. The untimed fixture is the base synthesis
// itself; the eco row's per-iteration base clone is excluded the same way
// the buffering row excludes its input clone.
func BenchmarkECO(b *testing.B) {
	path := filepath.Join(b.TempDir(), "ti-scale.cns")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := bench.GenerateTIScale(f, scaleSinks, 1); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	bm, err := bench.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	tk := tech.Default45()
	ladder := tk.BatchLadder("Small", 8)

	// One full construction prelude, exactly as the flow's zst -> buffer ->
	// polarity passes run it (no obstacles in the TI-scale cases, so the
	// legalize pass is a no-op): ZST into the arena, best-composite ladder
	// sweep, polarity correction with the half-strength composite. This is
	// what an ECO replaces — the full row times it on the perturbed
	// benchmark, and the untimed base fixture runs the same pipeline.
	var comp tech.Composite
	construct := func(bm *bench.Benchmark) *ctree.Arena {
		a := dme.BuildZSTArena(tk, bm.Source, bm.Sinks, dme.Options{})
		a.SourceR = bm.SourceR
		sweep, err := buffering.InsertBestCompositeArena(a, ladder, bm.CapLimit, 0.10, buffering.Options{})
		if err != nil {
			b.Fatal(err)
		}
		comp = sweep.Composite
		polComp := comp
		if half := polComp.N / 2; half >= 1 {
			polComp.N = half
		}
		buffering.CorrectPolarityArena(a, polComp, nil)
		return a
	}
	base := construct(bm)

	d, err := eco.Generate(bm, 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := d.Perturb(bm)
	if err != nil {
		b.Fatal(err)
	}

	var fullNs float64
	resetPeakRSS()
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			construct(perturbed)
		}
		fullNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		reportPeakRSS(b)
	})

	resetPeakRSS()
	b.Run("eco", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			work := base.Clone()
			eco.ReserveFor(work, d) // restore-phase cost, like the clone
			b.StartTimer()
			rep, err := eco.Apply(work, d, eco.Config{Composite: comp, Die: bm.Die})
			if err != nil {
				b.Fatal(err)
			}
			if got := rep.Moved + rep.Added + rep.Removed; got != d.Size() {
				b.Fatalf("applied %d delta ops, want %d", got, d.Size())
			}
		}
		if fullNs > 0 {
			ecoNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(fullNs/ecoNs, "full-vs-eco-x")
		}
		reportPeakRSS(b)
	})
}
