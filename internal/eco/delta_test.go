package eco_test

import (
	"reflect"
	"strings"
	"testing"

	"contango/internal/bench"
	"contango/internal/dme"
	"contango/internal/eco"
	"contango/internal/geom"
)

func deltaBench() *bench.Benchmark {
	b := &bench.Benchmark{
		Name:    "delta-fixture",
		Die:     geom.NewRect(0, 0, 1000, 1000),
		Source:  geom.Pt(0, 500),
		SourceR: 0.1,
		Sinks: []dme.Sink{
			{Name: "a", Loc: geom.Pt(100, 100), Cap: 20},
			{Name: "b", Loc: geom.Pt(500, 200), Cap: 25},
			{Name: "c", Loc: geom.Pt(800, 700), Cap: 30},
		},
	}
	b.CapLimit = 5000
	return b
}

func TestDeltaStringParseRoundTrip(t *testing.T) {
	d := &eco.Delta{
		// Deliberately out of canonical order.
		Moved:    []eco.SinkMove{{Name: "z", Loc: geom.Pt(3, 4)}, {Name: "a", Loc: geom.Pt(1.5, 2)}},
		Added:    []eco.SinkAdd{{Name: "n2", Loc: geom.Pt(7, 8), Cap: 12.5}, {Name: "n1", Loc: geom.Pt(5, 6), Cap: 9}},
		Removed:  []string{"q", "b"},
		CapLimit: 4200,
	}
	s := d.String()
	want := "move a 1.5 2\nmove z 3 4\nadd n1 5 6 9\nadd n2 7 8 12.5\nremove b\nremove q\ncaplimit 4200\n"
	if s != want {
		t.Fatalf("wire form:\n%q\nwant:\n%q", s, want)
	}
	back, err := eco.ParseDelta(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("round trip diverged:\n%+v\nwant\n%+v", back, d)
	}
	if back.String() != s {
		t.Fatalf("re-serialization diverged")
	}
}

func TestDeltaFingerprintOrderInvariant(t *testing.T) {
	d1 := &eco.Delta{Moved: []eco.SinkMove{{Name: "a", Loc: geom.Pt(1, 2)}, {Name: "b", Loc: geom.Pt(3, 4)}}}
	d2 := &eco.Delta{Moved: []eco.SinkMove{{Name: "b", Loc: geom.Pt(3, 4)}, {Name: "a", Loc: geom.Pt(1, 2)}}}
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Fatal("same delta in different line order changed the fingerprint")
	}
	d3 := &eco.Delta{Moved: []eco.SinkMove{{Name: "a", Loc: geom.Pt(1, 2.0001)}, {Name: "b", Loc: geom.Pt(3, 4)}}}
	if d1.Fingerprint() == d3.Fingerprint() {
		t.Fatal("different deltas share a fingerprint")
	}
}

func TestParseDeltaErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"move a 1", "move needs name x y"},
		{"add a 1 2", "add needs name x y cap"},
		{"add a 1 2 -5", "negative sink cap"},
		{"remove", "remove needs name"},
		{"remove a b", "remove needs name"},
		{"caplimit 0", "caplimit must be positive"},
		{"caplimit 5\ncaplimit 6", "caplimit repeated"},
		{"move a 1 2\nremove a", "already named"},
		{"teleport a 1 2", "unknown directive"},
		{"move a x y", "bad number"},
	}
	for _, c := range cases {
		if _, err := eco.ParseDelta(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseDelta(%q) err = %v, want mention of %q", c.in, err, c.want)
		}
	}
}

// TestParseDeltaRejectsNonFinite: NaN and infinite coordinates, caps and
// budgets are errors, not deltas that poison the repair and the metrics.
func TestParseDeltaRejectsNonFinite(t *testing.T) {
	for _, in := range []string{
		"caplimit NaN",
		"caplimit +Inf",
		"add zz NaN 0 1",
		"add zz 0 0 NaN",
		"add zz 0 -Inf 1",
		"move a 0 Inf",
		"move a nan 0",
	} {
		if _, err := eco.ParseDelta(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "non-finite number") {
			t.Errorf("ParseDelta(%q) err = %v, want a non-finite number error", in, err)
		}
	}
}

func TestParseDeltaSkipsCommentsAndBlanks(t *testing.T) {
	d, err := eco.ParseDelta(strings.NewReader("# an eco\n\n  move a 1 2  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Moved) != 1 || d.Moved[0].Name != "a" {
		t.Fatalf("parsed %+v", d)
	}
}

func TestPerturb(t *testing.T) {
	b := deltaBench()
	d := &eco.Delta{
		Moved:    []eco.SinkMove{{Name: "a", Loc: geom.Pt(150, 160)}},
		Added:    []eco.SinkAdd{{Name: "d", Loc: geom.Pt(400, 400), Cap: 11}},
		Removed:  []string{"b"},
		CapLimit: 6000,
	}
	p, err := d.Perturb(b)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(p.Sinks))
	for i, s := range p.Sinks {
		names[i] = s.Name
	}
	if !reflect.DeepEqual(names, []string{"a", "c", "d"}) {
		t.Fatalf("perturbed sink order %v", names)
	}
	if p.Sinks[0].Loc != geom.Pt(150, 160) {
		t.Fatalf("moved sink kept old placement: %v", p.Sinks[0].Loc)
	}
	if p.CapLimit != 6000 {
		t.Fatalf("cap limit %v, want 6000", p.CapLimit)
	}
	// The base benchmark is untouched.
	if len(b.Sinks) != 3 || b.Sinks[0].Loc != geom.Pt(100, 100) || b.CapLimit != 5000 {
		t.Fatal("Perturb mutated the base benchmark")
	}
}

func TestPerturbErrors(t *testing.T) {
	cases := []struct {
		d    *eco.Delta
		want string
	}{
		{&eco.Delta{Moved: []eco.SinkMove{{Name: "nope", Loc: geom.Pt(1, 1)}}}, "no sink"},
		{&eco.Delta{Moved: []eco.SinkMove{{Name: "a", Loc: geom.Pt(-50, 1)}}}, "outside the die"},
		{&eco.Delta{Removed: []string{"nope"}}, "no sink"},
		{&eco.Delta{Added: []eco.SinkAdd{{Name: "a", Loc: geom.Pt(1, 1), Cap: 5}}}, "already exists"},
		{&eco.Delta{Added: []eco.SinkAdd{{Name: "d", Loc: geom.Pt(2000, 1), Cap: 5}}}, "outside the die"},
		{&eco.Delta{Removed: []string{"a", "b", "c"}}, "no sinks"},
	}
	for i, c := range cases {
		if _, err := c.d.Perturb(deltaBench()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want mention of %q", i, err, c.want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b := deltaBench()
	for i := 0; i < 27; i++ {
		b.Sinks = append(b.Sinks, dme.Sink{
			Name: "s" + string(rune('a'+i)),
			Loc:  geom.Pt(float64(10+i*30), float64(20+i*25)), Cap: 20,
		})
	}
	d1, err := eco.Generate(b, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := eco.Generate(b, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d1.String() != d2.String() {
		t.Fatal("same (benchmark, frac, seed) produced different deltas")
	}
	if d1.Size() < 1 {
		t.Fatal("empty generated delta")
	}
	// The generated delta must apply cleanly to its own base.
	if _, err := d1.Perturb(b); err != nil {
		t.Fatalf("generated delta rejected by Perturb: %v", err)
	}
	if d3, err := eco.Generate(b, 0.3, 8); err != nil || d3.String() == d1.String() {
		t.Fatalf("seed change did not change the delta (err=%v)", err)
	}
	for _, frac := range []float64{0, -0.5, 1.5} {
		if _, err := eco.Generate(b, frac, 1); err == nil {
			t.Errorf("Generate accepted frac %g", frac)
		}
	}
	if _, err := eco.Generate(&bench.Benchmark{Name: "empty", Die: b.Die}, 0.5, 1); err == nil {
		t.Error("Generate accepted a sinkless benchmark")
	}
}
