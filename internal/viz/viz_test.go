package viz

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"contango/internal/analysis"
	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/slack"
	"contango/internal/tech"
)

func testTree() *ctree.Arena {
	tk := tech.Default45()
	tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	mid := tr.AddChildL(tr.Root(), ctree.Internal, geom.Pt(500, 500))
	s1 := tr.AddSink(mid, geom.Pt(900, 500), 30, "a")
	tr.AddSink(mid, geom.Pt(500, 900), 30, "b")
	tr.SetBuf(tr.InsertOnEdge(s1, 100, ctree.Buffer), tech.Composite{Type: tk.Inverters[1], N: 8})
	return tr
}

func TestWriteSVGBasics(t *testing.T) {
	tr := testTree()
	var buf bytes.Buffer
	err := WriteSVG(&buf, tr, Options{
		Obstacles: []geom.Obstacle{{Rect: geom.NewRect(100, 100, 200, 200)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "<path", "<rect", "<circle"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two sinks -> two crosses (4-point paths), one buffer rect + one
	// obstacle rect.
	if got := strings.Count(out, `stroke="#202020"`); got != 2 {
		t.Errorf("sink crosses=%d want 2", got)
	}
	if got := strings.Count(out, `fill="#3050d0"`); got != 1 {
		t.Errorf("buffer rects=%d want 1", got)
	}
}

func TestWriteSVGWithSlackGradient(t *testing.T) {
	tr := testTree()
	res, err := (&analysis.Elmore{}).Evaluate(ctree.NewTree(tr), tr.Tech.Reference())
	if err != nil {
		t.Fatal(err)
	}
	slk := slack.Compute(tr, []*analysis.Result{res})
	var buf bytes.Buffer
	if err := WriteSVG(&buf, tr, Options{Slacks: slk}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") || strings.Count(out, "<path") < 3 {
		t.Error("expected colored wire paths")
	}
	// Critical (zero-slack) edge must be red-dominant.
	if !strings.Contains(out, gradientColor(0)) {
		t.Errorf("expected critical color %s in output", gradientColor(0))
	}
}

func TestGradientColorEndpoints(t *testing.T) {
	red := gradientColor(0)
	green := gradientColor(1)
	if red == green {
		t.Fatal("gradient endpoints identical")
	}
	if red != "#dc0030" {
		t.Errorf("red=%s", red)
	}
	if green != "#00b430" {
		t.Errorf("green=%s", green)
	}
	if gradientColor(-5) != red || gradientColor(7) != green {
		t.Error("gradient must clamp")
	}
}

func TestEmptyTree(t *testing.T) {
	tk := tech.Default45()
	tr := ctree.NewArena(tk, geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	var buf bytes.Buffer
	if err := WriteSVG(&buf, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("even an empty tree should render a valid document")
	}
}

// TestSlackColoursLargeTreeFast: slack colouring is linear in the tree, so
// the wires of a 20k-edge tree get their colours in well under a second
// (the SVG endpoint colours every wire of a finished job).
func TestSlackColoursLargeTreeFast(t *testing.T) {
	tr := ctree.NewArena(tech.Default45(), geom.Pt(0, 0), 0.1, ctree.BuildHints{})
	lat := map[int]float64{}
	for i := 0; i < 100; i++ {
		mid := tr.AddChildL(tr.Root(), ctree.Internal, geom.Pt(float64(50*i), 1000))
		for j := 0; j < 199; j++ {
			s := tr.AddSink(mid, geom.Pt(float64(50*i+j%10), float64(1100+j)), 30, fmt.Sprintf("s%d_%d", i, j))
			lat[int(s)] = float64((i*199 + j) % 97)
		}
	}
	start := time.Now()
	slk := slack.Compute(tr, []*analysis.Result{{Rise: lat, Fall: lat}})
	colours := map[string]int{}
	tr.PreOrder(func(n int32) {
		if tr.Parent[n] >= 0 {
			colours[gradientColor(slk.Gradient(int(n)))]++
		}
	})
	if d := time.Since(start); d > time.Second {
		t.Errorf("colouring a 20k-edge tree took %v, want under 1s", d)
	}
	edges := 0
	for _, n := range colours {
		edges += n
	}
	if edges != 20000 || len(colours) < 2 {
		t.Errorf("coloured %d edges in %d colours, want 20000 edges in a gradient", edges, len(colours))
	}
}
