package buffering

import (
	"fmt"
	"math/rand"
	"testing"

	"contango/internal/ctree"
	"contango/internal/ctree/ctreetest"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/tech"
)

// The *MatchesPointer tests pin each buffering pass against the digests in
// testdata/arena.golden. They were recorded while pointer-tree twins of
// these passes still existed and produced the identical trees.

// randomZST builds a seeded random zero-skew tree in the arena.
func randomZST(seed int64, n int) *ctree.Arena {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]dme.Sink, n)
	for i := range sinks {
		sinks[i] = dme.Sink{
			Loc:  geom.Pt(rng.Float64()*5000, rng.Float64()*4000),
			Cap:  20 + rng.Float64()*30,
			Name: fmt.Sprintf("s%d", i),
		}
	}
	return dme.BuildZSTArena(tk, geom.Pt(0, 2000), sinks, dme.Options{})
}

// expectGolden validates a and compares its digest, together with the
// pass's reported outcome, against the golden entry label.
func expectGolden(t *testing.T, label string, a *ctree.Arena, outcome interface{}) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: arena invalid: %v", label, err)
	}
	ctreetest.RequireAMD64(t)
	ctreetest.Check(t, ctreetest.Golden(t, "testdata/arena.golden"), label, ctreetest.Digest(a, outcome))
}

func TestBalancedInsertArenaMatchesPointer(t *testing.T) {
	tk := tech.Default45()
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	for _, n := range []int{1, 9, 60, 300, 900} {
		a := randomZST(int64(n), n)
		added, err := BalancedInsertArena(a, comp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		expectGolden(t, fmt.Sprintf("balanced/n%d", n), a, added)
	}
}

func TestCorrectPolarityArenaMatchesPointer(t *testing.T) {
	tk := tech.Default45()
	comp := tech.Composite{Type: tk.Inverters[1], N: 2}
	for _, n := range []int{8, 70, 400} {
		a := randomZST(int64(200+n), n)
		if _, err := BalancedInsertArena(a, comp, Options{}); err != nil {
			t.Fatal(err)
		}
		added := CorrectPolarityArena(a, comp, nil)
		if len(InvertedSinksArena(a)) != 0 {
			t.Fatalf("n=%d: inverted sinks remain", n)
		}
		expectGolden(t, fmt.Sprintf("polarity/n%d", n), a, added)
	}
}

func TestSweepArenaMatchesPointer(t *testing.T) {
	tk := tech.Default45()
	ladder := tk.CompositeLadder()
	for _, n := range []int{30, 250} {
		a := randomZST(int64(300+n), n)
		res, err := InsertBestCompositeArena(a, ladder, a.WireCap()*3, 0.1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		expectGolden(t, fmt.Sprintf("sweep/n%d", n), a, res)
	}
}

// TestRebufferSinkArenaGolden pins the ECO stage repair: sinks re-attached
// near and far from buffered and unbuffered attach points, with and
// without an obstacle across their edges, each followed by
// RebufferSinkArena. The digest covers the repaired arena and every
// per-sink buffer count.
func TestRebufferSinkArenaGolden(t *testing.T) {
	tk := tech.Default45()
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	wall := geom.NewObstacleSet([]geom.Obstacle{{Rect: geom.NewRect(1500, 500, 3500, 3500)}})
	cases := []struct {
		name   string
		reach  float64 // how far a new sink lands from its attach point, µm
		obs    *geom.ObstacleSet
		maxCap float64
	}{
		{"near", 40, nil, 0},
		{"far", 6000, nil, 0},
		{"far-obs", 6000, wall, 0},
		{"mid-maxcap", 1500, nil, 120},
	}
	for _, tc := range cases {
		a := randomZST(401, 60)
		if _, err := BalancedInsertArena(a, comp, Options{}); err != nil {
			t.Fatal(err)
		}
		base := int32(a.Len()) // slots from here on are the repair's
		rng := rand.New(rand.NewSource(7))
		opt := Options{Obs: tc.obs, MaxCap: tc.maxCap}
		var counts []int
		for k := 0; k < 12; k++ {
			var at int32
			for {
				at = int32(rng.Intn(a.Len()))
				if a.Alive.Test(int(at)) && a.Kind[at] != ctree.Sink {
					break
				}
			}
			loc := a.Loc[at].Add(geom.Pt((rng.Float64()-0.5)*tc.reach, (rng.Float64()-0.5)*tc.reach))
			s := a.AddSink(at, loc, 20+rng.Float64()*30, fmt.Sprintf("new%d", k))
			counts = append(counts, RebufferSinkArena(a, s, comp, opt))
		}
		if tc.obs != nil {
			for _, b := range buffers(a) {
				if b >= base && tc.obs.BlocksPoint(a.Loc[b]) {
					t.Errorf("%s: repair buffer %d inside obstacle at %v", tc.name, b, a.Loc[b])
				}
			}
		}
		expectGolden(t, "rebuffer/"+tc.name, a, counts)
	}
}
