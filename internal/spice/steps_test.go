package spice_test

import (
	"testing"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/spice"
)

// BenchmarkFullSteps reports the full column-steps the stage kernel takes
// over one synthesis of three ISPD'09 contest designs (the paper plan) and
// of a 5k-sink TI sample (the CI scale plan), all with the fast simulator
// settings:
//
//	go test -run '^$' -bench FullSteps -benchtime 1x ./internal/spice/
func BenchmarkFullSteps(b *testing.B) {
	designs := []struct {
		name string
		load func() (*bench.Benchmark, error)
		opts core.Options
	}{
		{"ispd09f11", func() (*bench.Benchmark, error) { return bench.ISPD09("ispd09f11") }, core.Options{FastSim: true}},
		{"ispd09f22", func() (*bench.Benchmark, error) { return bench.ISPD09("ispd09f22") }, core.Options{FastSim: true}},
		{"ispd09fnb1", func() (*bench.Benchmark, error) { return bench.ISPD09("ispd09fnb1") }, core.Options{FastSim: true}},
		{"ti5000", func() (*bench.Benchmark, error) { return bench.NewTIPool().Sample(5000, 11), nil },
			core.Options{FastSim: true, LargeInverters: true, Plan: "zst,legalize,buffer,polarity,twsz:1,twsn:1,bwsn:1"}},
	}
	for _, d := range designs {
		b.Run(d.name, func(b *testing.B) {
			bm, err := d.load()
			if err != nil {
				b.Fatal(err)
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = spice.CountFullSteps(func() {
					if _, err := core.Synthesize(bm, d.opts); err != nil {
						b.Fatal(err)
					}
				})
			}
			b.ReportMetric(float64(steps), "full-steps")
		})
	}
}
