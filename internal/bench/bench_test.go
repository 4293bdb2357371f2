package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"contango/internal/dme"
	"contango/internal/geom"
)

func TestISPD09SuiteStatistics(t *testing.T) {
	wantSinks := map[string]int{
		"ispd09f11": 121, "ispd09f12": 117, "ispd09f21": 117,
		"ispd09f22": 91, "ispd09f31": 273, "ispd09f32": 190,
		"ispd09fnb1": 330,
	}
	for _, b := range ISPD09Suite() {
		if got := len(b.Sinks); got != wantSinks[b.Name] {
			t.Errorf("%s: sinks=%d want %d", b.Name, got, wantSinks[b.Name])
		}
		if b.CapLimit <= 0 {
			t.Errorf("%s: no cap limit", b.Name)
		}
		obs := geom.NewObstacleSet(b.Obstacles)
		for _, s := range b.Sinks {
			if !b.Die.Contains(s.Loc) {
				t.Errorf("%s: sink %s outside die", b.Name, s.Name)
			}
			if obs.BlocksPoint(s.Loc) {
				t.Errorf("%s: sink %s inside obstacle", b.Name, s.Name)
			}
			if s.Cap < 20 || s.Cap > 50 {
				t.Errorf("%s: sink cap %v out of range", b.Name, s.Cap)
			}
		}
		for _, o := range b.Obstacles {
			if o.Rect.Empty() {
				t.Errorf("%s: empty obstacle", b.Name)
			}
		}
	}
}

func TestISPD09Deterministic(t *testing.T) {
	a, _ := ISPD09("ispd09f31")
	b, _ := ISPD09("ispd09f31")
	if len(a.Sinks) != len(b.Sinks) {
		t.Fatal("nondeterministic sink count")
	}
	for i := range a.Sinks {
		if a.Sinks[i].Loc != b.Sinks[i].Loc || a.Sinks[i].Cap != b.Sinks[i].Cap {
			t.Fatalf("nondeterministic sink %d", i)
		}
	}
}

func TestISPD09Unknown(t *testing.T) {
	if _, err := ISPD09("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestF31HasAbuttingObstacles(t *testing.T) {
	b, _ := ISPD09("ispd09f31")
	obs := geom.NewObstacleSet(b.Obstacles)
	if len(obs.Compounds) >= len(b.Obstacles) {
		t.Errorf("expected at least one compound of abutting obstacles: %d obstacles, %d compounds",
			len(b.Obstacles), len(obs.Compounds))
	}
}

func TestTIPoolAndSampling(t *testing.T) {
	p := NewTIPool()
	if len(p.Locs) != 135000 {
		t.Fatalf("pool size %d want 135000", len(p.Locs))
	}
	for _, n := range []int{200, 1000, 5000} {
		b := p.Sample(n, 1)
		if len(b.Sinks) != n {
			t.Fatalf("sample %d: got %d sinks", n, len(b.Sinks))
		}
		for _, s := range b.Sinks {
			if !p.Die.Contains(s.Loc) {
				t.Fatalf("sample sink outside die")
			}
		}
	}
	// Distinct seeds give distinct samples; same seed reproduces.
	a := p.Sample(500, 1)
	b := p.Sample(500, 1)
	c := p.Sample(500, 2)
	same, diff := 0, 0
	for i := range a.Sinks {
		if a.Sinks[i].Loc == b.Sinks[i].Loc {
			same++
		}
		if a.Sinks[i].Loc != c.Sinks[i].Loc {
			diff++
		}
	}
	if same != 500 {
		t.Error("same seed must reproduce the sample")
	}
	if diff == 0 {
		t.Error("different seeds should differ")
	}
}

// fprintfWrite is Write as it was first written, with fmt's %g; the
// content hash is pinned to its bytes.
func fprintfWrite(w io.Writer, b *Benchmark) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# contango benchmark\nname %s\n", b.Name)
	fmt.Fprintf(bw, "die %g %g %g %g\n", b.Die.MinX, b.Die.MinY, b.Die.MaxX, b.Die.MaxY)
	fmt.Fprintf(bw, "source %g %g\n", b.Source.X, b.Source.Y)
	fmt.Fprintf(bw, "sourcer %g\n", b.SourceR)
	fmt.Fprintf(bw, "caplimit %g\n", b.CapLimit)
	for _, s := range b.Sinks {
		fmt.Fprintf(bw, "sink %s %g %g %g\n", s.Name, s.Loc.X, s.Loc.Y, s.Cap)
	}
	for _, o := range b.Obstacles {
		fmt.Fprintf(bw, "obstacle %s %g %g %g %g\n",
			o.Name, o.Rect.MinX, o.Rect.MinY, o.Rect.MaxX, o.Rect.MaxY)
	}
	return bw.Flush()
}

// TestWriteMatchesFprintf: Write renders every benchmark byte for byte as
// the fmt version did, odd numbers and names included.
func TestWriteMatchesFprintf(t *testing.T) {
	odd := &Benchmark{
		Die:     geom.Rect{MinX: math.Copysign(0, -1), MinY: 1e-7, MaxX: 1e21, MaxY: 123456789012},
		Source:  geom.Pt(math.Inf(1), math.NaN()),
		SourceR: 5e-324, CapLimit: math.Inf(-1),
		Sinks: []dme.Sink{{Name: "", Loc: geom.Pt(0.1, 1e20), Cap: 1.7976931348623157e308},
			{Name: "név<&>", Loc: geom.Pt(-2.5, 100000), Cap: 1e-5}},
		Obstacles: []geom.Obstacle{{Name: "o", Rect: geom.Rect{MinX: 1, MinY: 2, MaxX: 3.25, MaxY: 4e6}}},
	}
	for _, b := range append(ISPD09Suite(), odd, NewTIPool().Sample(500, 3)) {
		var got, want bytes.Buffer
		if err := Write(&got, b); err != nil {
			t.Fatal(err)
		}
		if err := fprintfWrite(&want, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write differs from the fmt rendering", b.Name)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	b, _ := ISPD09("ispd09f22")
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.Name || got.Die != b.Die || got.Source != b.Source {
		t.Error("header fields differ after round trip")
	}
	if math.Abs(got.CapLimit-b.CapLimit) > 1e-6 || got.SourceR != b.SourceR {
		t.Error("limits differ after round trip")
	}
	if len(got.Sinks) != len(b.Sinks) || len(got.Obstacles) != len(b.Obstacles) {
		t.Fatal("counts differ after round trip")
	}
	for i := range b.Sinks {
		if got.Sinks[i] != b.Sinks[i] {
			t.Fatalf("sink %d differs: %+v vs %+v", i, got.Sinks[i], b.Sinks[i])
		}
	}
}

func TestReadMalformed(t *testing.T) {
	cases := []string{
		"sink s1 10 20",           // missing cap
		"die 0 0 100",             // missing coordinate
		"bogus directive",         // unknown
		"sink s1 a b c",           // non-numeric
		"name x\ndie 0 0 100 100", // no sinks
		"sink s1 1 2 30",          // no die
		"name x\ndie 0 0 100 100\nsourcer -1\nsink a 1 1 1", // bad resistance
		"name x\ndie 0 0 NaN 100\nsink a 1 1 1",             // non-finite coordinate
		"name x\ndie 0 0 100 100\nsink a 1 1 +Inf",          // non-finite cap
		"name x y\ndie 0 0 100 100\nsink a 1 1 1",           // two names
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("expected parse error for %q", c)
		}
	}
}

func TestReadIgnoresCommentsAndBlank(t *testing.T) {
	src := `
# a comment
name tiny

die 0 0 1000 1000
source 0 500
# another
sink a 100 200 30
`
	b, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "tiny" || len(b.Sinks) != 1 {
		t.Errorf("parsed %+v", b)
	}
}
