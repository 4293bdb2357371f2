package core

import (
	"io"

	"contango/internal/slack"
	"contango/internal/spice"
	"contango/internal/viz"
)

// RenderSVG writes the result's clock tree as an SVG in the style of the
// paper's Figure 3, with wires colored by slow-down slack. It re-evaluates
// the tree at every corner with a fresh engine; both the library's
// contango.RenderSVG and the service's SVG endpoint delegate here.
func RenderSVG(w io.Writer, res *Result) error {
	rs, err := spice.New().EvaluateAll(res.Tree)
	if err != nil {
		return err
	}
	a := res.Tree.Arena()
	slk := slack.Compute(a, rs)
	return viz.WriteSVG(w, a, viz.Options{
		Slacks:    slk,
		Obstacles: res.Benchmark.Obstacles,
		Die:       res.Benchmark.Die,
	})
}
