// Package viz renders clock trees as SVG in the style of the paper's
// Figure 3: sinks drawn as crosses, buffers as small rectangles, obstacles
// as gray blocks, and wires colored along a red-green gradient by their
// slow-down slack (red = critical, green = plenty of slack).
package viz

import (
	"fmt"
	"io"
	"math"

	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/slack"
)

// Options controls rendering.
type Options struct {
	// WidthPx is the output image width in pixels (default 900; height
	// follows the die aspect ratio).
	WidthPx float64
	// Slacks colors wires by slow-down slack when non-nil; otherwise all
	// wires are drawn black.
	Slacks *slack.Slacks
	// Obstacles are drawn as gray blocks.
	Obstacles []geom.Obstacle
	// Die overrides the drawing viewport; the zero rect derives it from
	// the tree extents.
	Die geom.Rect
}

// WriteSVG renders the tree a to w.
func WriteSVG(w io.Writer, a *ctree.Arena, opt Options) error {
	if opt.WidthPx == 0 {
		opt.WidthPx = 900
	}
	die := opt.Die
	if die.Empty() {
		die = treeExtent(a).Inflate(200)
	}
	sx := opt.WidthPx / die.W()
	hPx := die.H() * sx
	// SVG y grows downward; flip.
	X := func(x float64) float64 { return (x - die.MinX) * sx }
	Y := func(y float64) float64 { return hPx - (y-die.MinY)*sx }

	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		opt.WidthPx, hPx, opt.WidthPx, hPx); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")

	for _, o := range opt.Obstacles {
		r := o.Rect
		fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#d8d8d8" stroke="#aaaaaa"/>`+"\n",
			X(r.MinX), Y(r.MaxY), r.W()*sx, r.H()*sx)
	}

	// Wires, colored by slack.
	var werr error
	a.PreOrder(func(n int32) {
		route := a.Route(n)
		if werr != nil || a.Parent[n] < 0 || len(route) < 2 {
			return
		}
		color := "#000000"
		if opt.Slacks != nil {
			color = gradientColor(opt.Slacks.Gradient(int(n)))
		}
		path := ""
		for i, p := range route {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			path += fmt.Sprintf("%s%.1f %.1f ", cmd, X(p.X), Y(p.Y))
		}
		if _, err := fmt.Fprintf(w, `<path d="%s" fill="none" stroke="%s" stroke-width="1.2"/>`+"\n", path, color); werr == nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}

	// Buffers: blue rectangles; sinks: crosses.
	a.PreOrder(func(n int32) {
		if werr != nil {
			return
		}
		loc := a.Loc[n]
		switch a.Kind[n] {
		case ctree.Buffer:
			_, werr = fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="5" height="5" fill="#3050d0"/>`+"\n",
				X(loc.X)-2.5, Y(loc.Y)-2.5)
		case ctree.Sink:
			x, y := X(loc.X), Y(loc.Y)
			_, werr = fmt.Fprintf(w,
				`<path d="M%.1f %.1f L%.1f %.1f M%.1f %.1f L%.1f %.1f" stroke="#202020" stroke-width="1"/>`+"\n",
				x-3, y-3, x+3, y+3, x-3, y+3, x+3, y-3)
		case ctree.Source:
			_, werr = fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="5" fill="#c03030"/>`+"\n", X(loc.X), Y(loc.Y))
		}
	})
	if werr != nil {
		return werr
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}

// gradientColor maps slack weight 0..1 onto red→green.
func gradientColor(t float64) string {
	t = math.Max(0, math.Min(1, t))
	r := int(220 * (1 - t))
	g := int(180 * t)
	return fmt.Sprintf("#%02x%02x30", r, g)
}

func treeExtent(a *ctree.Arena) geom.Rect {
	r := geom.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	a.PreOrder(func(n int32) {
		for _, p := range a.Route(n) {
			r.MinX = math.Min(r.MinX, p.X)
			r.MinY = math.Min(r.MinY, p.Y)
			r.MaxX = math.Max(r.MaxX, p.X)
			r.MaxY = math.Max(r.MaxY, p.Y)
		}
		loc := a.Loc[n]
		r.MinX = math.Min(r.MinX, loc.X)
		r.MinY = math.Min(r.MinY, loc.Y)
		r.MaxX = math.Max(r.MaxX, loc.X)
		r.MaxY = math.Max(r.MaxY, loc.Y)
	})
	if r.Empty() {
		return geom.NewRect(0, 0, 1, 1)
	}
	return r
}
