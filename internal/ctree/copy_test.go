package ctree_test

import (
	"math/rand"
	"testing"

	"contango/internal/ctree"
	"contango/internal/ctree/ctreetest"
	"contango/internal/geom"
	"contango/internal/tech"
)

// copyFixture returns an arena after a random burst of mutations, with
// the span garbage, dead slots and journal bits they leave.
func copyFixture(rng *rand.Rand) *ctree.Arena {
	a := propFixture(rng, tech.Default45())
	for i := 0; i < 40; i++ {
		mutate(rng, a)
	}
	return a
}

// TestCopyFromMatchesClone: CopyFrom leaves any destination, fresh or
// holding a larger or smaller arena, equal to Clone field for field (span
// offsets and garbage included), and the copy then evolves exactly like
// the clone under the same edits.
func TestCopyFromMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := copyFixture(rng)
	// Span garbage, dead slots and journal bits.
	sinks := src.Sinks()
	src.InsertOnEdge(sinks[0], 1, ctree.Internal)
	src.AddSink(src.Root(), geom.Pt(5, 5), 20, "tail")
	src.DeleteSubtree(sinks[len(sinks)-1])
	orig := src.Clone()

	big := copyFixture(rand.New(rand.NewSource(12)))
	for i := 0; i < 30; i++ {
		big.AddSink(big.Root(), geom.Pt(float64(i), 1), 10, "pad")
	}
	small := ctree.NewArena(tech.Default45(), geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	for name, dst := range map[string]*ctree.Arena{"fresh": new(ctree.Arena), "larger": big, "smaller": small} {
		want := src.Clone()
		dst.CopyFrom(src)
		ctreetest.RequireSameArena(t, name, dst, want)
		for _, a := range []*ctree.Arena{dst, want} {
			kids := a.Children(a.Root())
			a.AddSink(kids[0], geom.Pt(3, 4), 11, "grow") // relocates a non-tail span
			a.AddSink(a.Root(), geom.Pt(6, 7), 12, "grow")
		}
		ctreetest.RequireSameArena(t, name+" after edits", dst, want)
		if err := dst.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	ctreetest.RequireSameArena(t, "source after edits to its copies", src, orig)
}
