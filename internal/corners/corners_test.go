package corners

import (
	"reflect"
	"strings"
	"testing"

	"contango/internal/tech"
)

func TestValidate(t *testing.T) {
	for _, ok := range []string{"", "ispd09", "pvt5", "mc:1:0", "mc:8:1", "mc:64:7:0.1", "mc:16:3:0.05:0.02:0.03"} {
		if err := Validate(ok); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"nope", "mc", "mc:", "mc:0:1", "mc:8", "mc:x:1", "mc:8:y",
		"mc:8:1:2", "mc:8:1:-0.1", "mc:8:1:0.05:0.05:0.05:0.05", "mc:99999:1"} {
		if err := Validate(bad); err == nil {
			t.Errorf("Validate(%q) accepted", bad)
		}
	}
}

// TestValidateRejectsNonFiniteSigma: a NaN sigma used to pass the range
// check (every comparison with NaN is false) and turned every corner's
// metrics into NaN.
func TestValidateRejectsNonFiniteSigma(t *testing.T) {
	for _, bad := range []string{"mc:2:1:NaN", "mc:2:1:nan", "mc:2:1:0.05:NaN", "mc:2:1:0.05:0.05:NaN",
		"mc:2:1:Inf", "mc:2:1:+Inf", "mc:2:1:0.05:-Inf"} {
		if err := Validate(bad); err == nil {
			t.Errorf("Validate(%q) accepted", bad)
		}
		if _, err := Build(bad, tech.Default45()); err == nil {
			t.Errorf("Build(%q) accepted", bad)
		}
	}
}

func TestCanon(t *testing.T) {
	cases := map[string]string{
		"":                       DefaultName,
		"ispd09":                 DefaultName,
		"pvt5":                   "pvt5",
		"mc:8:1":                 "mc:8:1:0.05:0.05:0.05",
		"mc:8:1:0.05":            "mc:8:1:0.05:0.05:0.05",
		"mc:8:1:0.05:0.05:0.05":  "mc:8:1:0.05:0.05:0.05",
		"mc:4:2:0.1:0.02:0.03":   "mc:4:2:0.1:0.02:0.03",
		" pvt5 ":                 "pvt5",
		"bogus-set":              "bogus-set", // invalid: returned verbatim
		"mc:8:1:0.05:0.05:0.9":   "mc:8:1:0.05:0.05:0.9",
		"mc:8:1:0.05:0.05:0.5:1": "mc:8:1:0.05:0.05:0.5:1",
	}
	// Invalid sigma 0.9 stays verbatim too.
	cases["mc:8:1:0.05:0.05:0.9"] = "mc:8:1:0.05:0.05:0.9"
	for in, want := range cases {
		if got := Canon(in); got != want {
			t.Errorf("Canon(%q)=%q want %q", in, got, want)
		}
	}
}

func TestDefaultSetIsIdentity(t *testing.T) {
	tk := tech.Default45()
	s, err := Build("ispd09", tk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Corners, tk.Corners) {
		t.Errorf("default set rebuilt corners: %+v", s.Corners)
	}
	if s.Ref != 0 || s.Worst != len(tk.Corners)-1 || s.MC {
		t.Errorf("default roles wrong: %+v", s)
	}
}

func TestPVT5(t *testing.T) {
	tk := tech.Default45()
	s, err := Build("pvt5", tk)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Corners) != 5 {
		t.Fatalf("pvt5 corners=%d want 5", len(s.Corners))
	}
	ref, worst := s.Reference(), s.Corners[s.Worst]
	if ref.Vdd != tk.Reference().Vdd {
		t.Errorf("pvt5 reference Vdd=%v want the native fast corner's %v", ref.Vdd, tk.Reference().Vdd)
	}
	if worst.Vdd >= tk.Worst().Vdd {
		t.Errorf("pvt5 worst Vdd=%v must undervolt below the native slow %v", worst.Vdd, tk.Worst().Vdd)
	}
	if worst.RScale() <= 1 || worst.CScale() <= 1 {
		t.Errorf("pvt5 SS corner should derate interconnect slow: r=%v c=%v", worst.RScale(), worst.CScale())
	}
	// Every corner must stay evaluable (above threshold).
	for _, c := range s.Corners {
		if c.Vdd <= tk.Vt {
			t.Errorf("corner %s Vdd=%v below threshold", c.Name, c.Vdd)
		}
	}
}

func TestMonteCarloDeterminism(t *testing.T) {
	tk := tech.Default45()
	a, err := Build("mc:16:42", tk)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("mc:16:42", tk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec, same tech: sets must be identical")
	}
	c, err := Build("mc:16:43", tk)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Corners, c.Corners) {
		t.Error("different seeds drew identical samples")
	}
	// Canonical and shorthand specs build the same set.
	d, err := Build("mc:16:42:0.05:0.05:0.05", tk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Corners, d.Corners) {
		t.Error("canonicalized spec diverged from shorthand")
	}
}

func TestMonteCarloShape(t *testing.T) {
	tk := tech.Default45()
	s, err := Build("mc:32:7", tk)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Corners) != 32 || !s.MC {
		t.Fatalf("mc set shape wrong: n=%d mc=%v", len(s.Corners), s.MC)
	}
	names := map[string]bool{}
	for _, c := range s.Corners {
		if names[c.Name] {
			t.Errorf("duplicate corner name %q (breaks per-corner calibration keyed by name)", c.Name)
		}
		names[c.Name] = true
		if c.Vdd <= tk.Vt {
			t.Errorf("sample %s Vdd=%v not evaluable", c.Name, c.Vdd)
		}
		if c.RScale() <= 0 || c.CScale() <= 0 {
			t.Errorf("sample %s has non-positive derates", c.Name)
		}
	}
	// Role assignment: the reference must be the fastest scored sample and
	// worst the slowest; they must differ for any non-trivial draw.
	if s.Ref == s.Worst {
		t.Error("mc ref and worst coincide")
	}
	slowness := func(c tech.Corner) float64 { return c.RScale() * c.CScale() / (c.Vdd - tk.Vt) }
	for _, c := range s.Corners {
		if slowness(c) < slowness(s.Reference()) {
			t.Errorf("sample %s faster than the reference", c.Name)
		}
		if slowness(c) > slowness(s.Corners[s.Worst]) {
			t.Errorf("sample %s slower than the worst", c.Name)
		}
	}
}

func TestApplyClones(t *testing.T) {
	tk := tech.Default45()
	before := append([]tech.Corner(nil), tk.Corners...)
	s, err := Build("pvt5", tk)
	if err != nil {
		t.Fatal(err)
	}
	applied := s.Apply(tk)
	if !reflect.DeepEqual(tk.Corners, before) || tk.CornerSpec != "" {
		t.Error("Apply mutated the original technology model")
	}
	if applied.CornerSpec != "pvt5" || len(applied.Corners) != 5 {
		t.Errorf("applied tech wrong: spec=%q corners=%d", applied.CornerSpec, len(applied.Corners))
	}
	if applied.Reference().Name != s.Reference().Name || applied.Worst().Name != s.Corners[s.Worst].Name {
		t.Error("roles lost in application")
	}
	if applied.MCSet != s.MC {
		t.Errorf("MC flag wrong: applied=%v set=%v", applied.MCSet, s.MC)
	}
	// FromTech round-trips the installed roles.
	back := FromTech(applied)
	if back.Ref != s.Ref || back.Worst != s.Worst || back.MC != s.MC {
		t.Errorf("FromTech lost roles: %+v vs %+v", back, s)
	}
}

func TestList(t *testing.T) {
	infos := List(tech.Default45())
	if len(infos) != 3 {
		t.Fatalf("List entries=%d want 3", len(infos))
	}
	for _, in := range infos {
		if len(in.Corners) == 0 {
			t.Errorf("listing %q carries no instantiated corners", in.Name)
		}
		if in.Description == "" {
			t.Errorf("listing %q has no description", in.Name)
		}
	}
	if !strings.HasPrefix(infos[2].Name, "mc:") || !infos[2].MC {
		t.Errorf("mc grammar row wrong: %+v", infos[2])
	}
}

// TestMonteCarloDerateFloor: extreme sigmas must never draw a zero or
// negative interconnect scale — that would flow negative conductances into
// the evaluators and silently corrupt every metric.
func TestMonteCarloDerateFloor(t *testing.T) {
	tk := tech.Default45()
	s, err := Build("mc:200:1:0.05:0.5:0.5", tk)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Corners {
		if c.RScale() <= 0 || c.CScale() <= 0 {
			t.Fatalf("sample %s drew non-positive scales: r=%v c=%v", c.Name, c.RScale(), c.CScale())
		}
		if c.Vdd <= tk.Vt {
			t.Fatalf("sample %s not evaluable: vdd=%v", c.Name, c.Vdd)
		}
	}
}
