package corners

import (
	"math"
	"reflect"
	"testing"

	"contango/internal/tech"
)

// FuzzCornerSpec feeds arbitrary corner-set specs to Validate, Canon and
// Build. None may panic; Build must agree with Validate; the canonical
// rendering of an accepted spec must canonicalize to itself and build the
// same corners; and every corner built on tech.Default45 must have a
// finite supply and finite derates. The seed corpus lives in
// testdata/fuzz/FuzzCornerSpec.
func FuzzCornerSpec(f *testing.F) {
	tk := tech.Default45()
	f.Fuzz(func(t *testing.T, spec string) {
		set, err := Build(spec, tk)
		if verr := Validate(spec); (verr == nil) != (err == nil) {
			t.Fatalf("Validate(%q) = %v but Build = %v", spec, verr, err)
		}
		if err != nil {
			return
		}
		canon := Canon(spec)
		if again := Canon(canon); again != canon {
			t.Fatalf("rendering of %q is not canonical: %q -> %q", spec, canon, again)
		}
		cset, err := Build(canon, tk)
		if err != nil {
			t.Fatalf("canonical spec %q of %q does not build: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(cset.Corners, set.Corners) {
			t.Fatalf("canonical spec %q builds other corners than %q", canon, spec)
		}
		for _, c := range set.Corners {
			for _, v := range []float64{c.Vdd, c.RDerate, c.CDerate, c.Weight} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%q: corner %+v is not finite", spec, c)
				}
			}
		}
	})
}
