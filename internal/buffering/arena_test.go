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
// testdata/arena.golden. They were recorded while the pointer twins of
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
	got, err := a.ToTree()
	if err != nil {
		t.Fatalf("%s: ToTree: %v", label, err)
	}
	ctreetest.RequireAMD64(t)
	ctreetest.Check(t, ctreetest.Golden(t, "testdata/arena.golden"), label, ctreetest.Digest(got, outcome))
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

func TestInsertArenaMatchesPointer(t *testing.T) {
	tk := tech.Default45()
	comp := tech.Composite{Type: tk.Inverters[1], N: 4}
	for _, n := range []int{5, 40, 150} {
		a := randomZST(int64(100+n), n)
		added, err := InsertArena(a, comp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		expectGolden(t, fmt.Sprintf("vg/n%d", n), a, added)
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
