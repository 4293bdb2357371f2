package dme

import (
	"math/rand"
	"testing"

	"contango/internal/ctree/ctreetest"
	"contango/internal/geom"
	"contango/internal/tech"
)

// TestArenaBuildMatchesPointerPath pins BuildZSTArena against the digests in
// testdata/zst.golden, recorded while a pointer-tree construction path
// still existed beside the arena and produced the identical trees.
func TestArenaBuildMatchesPointerPath(t *testing.T) {
	ctreetest.RequireAMD64(t)
	golden := ctreetest.Golden(t, "testdata/zst.golden")
	tk := tech.Default45()
	die := geom.NewRect(0, 0, 6000, 4000)
	src := geom.Pt(0, 2000)
	for _, tc := range []struct {
		name string
		n    int
		opt  Options
	}{
		{"nn-small", 17, Options{Topology: "nn"}},
		{"nn-coincident", 9, Options{Topology: "nn"}},
		{"mmm-small", 33, Options{Topology: "mmm"}},
		{"mmm-large", 1500, Options{}},
		{"mmm-nobalance", 700, Options{NoBalance: true}},
		{"mmm-nosnake", 700, Options{NoSnake: true}},
		{"mmm-quantized", 700, Options{TapQuantum: 5}},
		{"empty", 0, Options{}},
		{"single", 1, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)))
			sinks := randomSinks(rng, tc.n, die)
			if tc.name == "nn-coincident" {
				for i := range sinks {
					sinks[i].Loc = geom.Pt(500, 500)
				}
			}
			a := BuildZSTArena(tk, src, sinks, tc.opt)
			if err := a.Validate(); err != nil {
				t.Fatalf("arena invalid: %v", err)
			}
			ctreetest.Check(t, golden, tc.name, ctreetest.Digest(a))
		})
	}
}

func TestArenaBuildParallelBitIdentical(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(11))
	sinks := randomSinks(rng, 6000, geom.NewRect(0, 0, 9000, 9000))
	want := ctreetest.Digest(BuildZSTArena(tk, geom.Pt(0, 0), sinks, Options{}))
	for _, par := range []int{2, 4, 8} {
		parallel := BuildZSTArena(tk, geom.Pt(0, 0), sinks, Options{Parallelism: par})
		if got := ctreetest.Digest(parallel); got != want {
			t.Fatalf("parallelism=%d: tree digest %s, serial %s", par, got, want)
		}
	}
}
