package buffering

import (
	"testing"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

func TestSinkClusterSplit(t *testing.T) {
	tk := tech.Default45()
	a := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	hub := a.AddChildL(a.Root(), ctree.Internal, geom.Pt(3000, 0))
	for i := 0; i < 20; i++ {
		a.AddSink(hub, geom.Pt(3000+float64(i), 0), 35, "")
	}
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	added, err := BalancedInsertArena(a, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("added %d buffers", added)
	safe := SafeLoad(tk, comp)
	var net analysis.Net
	if err := net.Extract(a, 0); err != nil {
		t.Fatal(err)
	}
	for _, s := range net.Stages {
		drv := "source"
		if s.Driver >= 0 {
			drv = "buf"
		}
		driven := s.TotalCap()
		if s.Driver >= 0 {
			driven -= s.Buf.Cout()
		}
		t.Logf("stage %d driver=%s driven=%.1f", s.Index, drv, driven)
		if s.Driver >= 0 && driven > safe {
			t.Errorf("stage %d overloaded: %.1f > %.1f", s.Index, driven, safe)
		}
	}
}
