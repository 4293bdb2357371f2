package opt

import (
	"math/rand"
	"testing"

	"contango/internal/ctree"
	"contango/internal/dme"
	"contango/internal/geom"
	"contango/internal/tech"
)

func TestTrunkArenaMatchesPointer(t *testing.T) {
	tk := tech.Default45()
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 17, 120} {
		var sinks []dme.Sink
		for len(sinks) < n {
			sinks = append(sinks, dme.Sink{
				Loc: geom.Pt(2000+rng.Float64()*3000, 2000+rng.Float64()*3000),
				Cap: 20 + rng.Float64()*20,
			})
		}
		// A far-away source gives the long boundary-to-center trunk the
		// helper exists for.
		tr, err := dme.BuildZSTArena(tk, geom.Pt(0, 0), sinks, dme.Options{}).ToTree()
		if err != nil {
			t.Fatal(err)
		}
		a := ctree.FromTree(tr)
		want := Trunk(tr)
		got := TrunkArena(a)
		if len(want) != len(got) {
			t.Fatalf("n=%d: trunk lengths differ: pointer %d vs arena %d", n, len(want), len(got))
		}
		for i := range want {
			if int32(want[i].ID) != got[i] {
				t.Fatalf("n=%d: trunk[%d] = node %d vs slot %d", n, i, want[i].ID, got[i])
			}
		}
	}
}
