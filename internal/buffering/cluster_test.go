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
	tr := ctree.New(tk, geom.Pt(0, 0), 0.1)
	hub := tr.AddChild(tr.Root, ctree.Internal, geom.Pt(3000, 0))
	for i := 0; i < 20; i++ {
		tr.AddSink(hub, geom.Pt(3000+float64(i), 0), 35, "")
	}
	comp := tech.Composite{Type: tk.Inverters[1], N: 8}
	tr, added := arenaPass(t, tr, func(a *ctree.Arena) (int, error) { return BalancedInsertArena(a, comp, Options{}) })
	t.Logf("added %d buffers", added)
	safe := SafeLoad(tk, comp)
	net := analysis.Extract(tr, 0)
	for _, s := range net.Stages {
		drv := "source"
		if s.Driver != nil {
			drv = "buf"
		}
		driven := s.TotalCap()
		if s.Driver != nil {
			driven -= s.Driver.Buf.Cout()
		}
		t.Logf("stage %d driver=%s driven=%.1f", s.Index, drv, driven)
		if s.Driver != nil && driven > safe {
			t.Errorf("stage %d overloaded: %.1f > %.1f", s.Index, driven, safe)
		}
	}
}
