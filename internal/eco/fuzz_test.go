package eco_test

import (
	"math"
	"strings"
	"testing"

	"contango/internal/eco"
)

// FuzzParseDelta feeds arbitrary text to ParseDelta. It must never panic,
// every number of an accepted delta must be finite, and the canonical wire
// form of an accepted delta must parse back to the same wire form. The
// seed corpus lives in testdata/fuzz/FuzzParseDelta.
func FuzzParseDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		d, err := eco.ParseDelta(strings.NewReader(src))
		if err != nil {
			return
		}
		finite := func(vs ...float64) {
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted a non-finite number in %q", src)
				}
			}
		}
		for _, m := range d.Moved {
			finite(m.Loc.X, m.Loc.Y)
		}
		for _, a := range d.Added {
			finite(a.Loc.X, a.Loc.Y, a.Cap)
		}
		finite(d.CapLimit)
		wire := d.String()
		again, err := eco.ParseDelta(strings.NewReader(wire))
		if err != nil {
			t.Fatalf("wire form of %q does not parse: %v\n%s", src, err, wire)
		}
		if got := again.String(); got != wire {
			t.Fatalf("wire form of %q is not canonical:\n%s\n->\n%s", src, wire, got)
		}
	})
}
