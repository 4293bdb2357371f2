package analysis

import (
	"reflect"
	"testing"

	"contango/internal/ctree"
	"contango/internal/tech"
)

// TestDerateUnityBitIdentical: a corner spelling out unit derates takes
// the same code path values as the bare corner — bit-identical results
// for every evaluator.
func TestDerateUnityBitIdentical(t *testing.T) {
	tk := tech.Default45()
	tr := ctree.NewTree(singleWire(tk))
	bare := tech.Corner{Name: "fast@1.2V", Vdd: 1.2}
	unity := tech.Corner{Name: "fast@1.2V", Vdd: 1.2, RDerate: 1, CDerate: 1}
	for _, ev := range []Evaluator{&Elmore{}, &TwoPole{}} {
		a, err := ev.Evaluate(tr, bare)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ev.Evaluate(tr, unity)
		if err != nil {
			t.Fatal(err)
		}
		// Corner identity differs (field values), so compare measurements.
		a.Corner, b.Corner = tech.Corner{}, tech.Corner{}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: unit derates changed results", ev.Name())
		}
	}
}

// TestDerateSlowsNetwork: scaling interconnect R or C up must increase
// every sink latency under both closed-form models.
func TestDerateSlowsNetwork(t *testing.T) {
	tk := tech.Default45()
	tr := ctree.NewTree(singleWire(tk))
	sinks := tr.Arena().Sinks()
	base := tech.Corner{Name: "base", Vdd: 1.2}
	for _, ev := range []Evaluator{&Elmore{}, &TwoPole{}} {
		b, err := ev.Evaluate(tr, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, derated := range []tech.Corner{
			{Name: "slowR", Vdd: 1.2, RDerate: 1.3},
			{Name: "slowC", Vdd: 1.2, CDerate: 1.3},
			{Name: "slowRC", Vdd: 1.2, RDerate: 1.15, CDerate: 1.15},
		} {
			d, err := ev.Evaluate(tr, derated)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range sinks {
				if v := d.Rise[id]; v <= b.Rise[id] {
					t.Errorf("%s/%s: sink %d not slower: %v <= %v", ev.Name(), derated.Name, id, v, b.Rise[id])
				}
			}
		}
		// And fast interconnect speeds it up.
		f, err := ev.Evaluate(tr, tech.Corner{Name: "fastRC", Vdd: 1.2, RDerate: 0.8, CDerate: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range sinks {
			if f.Rise[id] >= b.Rise[id] {
				t.Errorf("%s: fast derate not faster at sink %d", ev.Name(), id)
			}
		}
	}
}
