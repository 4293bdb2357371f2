package bench

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"contango/internal/dme"
	"contango/internal/geom"
)

// Write serializes a benchmark in the library's plain-text format:
//
//	name <string>
//	die <minx> <miny> <maxx> <maxy>
//	source <x> <y>
//	sourcer <kohm>
//	caplimit <fF>
//	sink <name> <x> <y> <cap_fF>
//	obstacle <name> <minx> <miny> <maxx> <maxy>
//
// Lines starting with '#' are comments. All coordinates are µm. An empty
// name is written as a bare "name" line.
func Write(w io.Writer, b *Benchmark) error {
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

// Read parses the text format written by Write. Numbers must be finite.
func Read(r io.Reader) (*Benchmark, error) {
	b := &Benchmark{SourceR: 0.1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			// Scale-generated files carry a "# sinks n" hint so the sink
			// slice can be sized once instead of doubling its way up.
			if f := strings.Fields(line); len(f) == 3 && f[0] == "#" && f[1] == "sinks" {
				if n, err := strconv.Atoi(f[2]); err == nil && n > 0 && n <= 4<<20 && b.Sinks == nil {
					b.Sinks = make([]dme.Sink, 0, n)
				}
			}
			continue
		}
		f := strings.Fields(line)
		bad := func(why string) error {
			return fmt.Errorf("bench: line %d: %s: %q", lineNo, why, line)
		}
		num := func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("non-finite number %q", s)
			}
			return v, err
		}
		switch f[0] {
		case "name":
			if len(f) > 2 {
				return nil, bad("name takes at most 1 argument")
			}
			b.Name = ""
			if len(f) == 2 {
				b.Name = f[1]
			}
		case "die":
			if len(f) != 5 {
				return nil, bad("die needs 4 coordinates")
			}
			var v [4]float64
			for i := 0; i < 4; i++ {
				x, err := num(f[i+1])
				if err != nil {
					return nil, bad("bad coordinate")
				}
				v[i] = x
			}
			b.Die = geom.NewRect(v[0], v[1], v[2], v[3])
		case "source":
			if len(f) != 3 {
				return nil, bad("source needs 2 coordinates")
			}
			x, err1 := num(f[1])
			y, err2 := num(f[2])
			if err1 != nil || err2 != nil {
				return nil, bad("bad coordinate")
			}
			b.Source = geom.Pt(x, y)
		case "sourcer":
			if len(f) != 2 {
				return nil, bad("sourcer needs 1 value")
			}
			v, err := num(f[1])
			if err != nil || v <= 0 {
				return nil, bad("bad source resistance")
			}
			b.SourceR = v
		case "caplimit":
			if len(f) != 2 {
				return nil, bad("caplimit needs 1 value")
			}
			v, err := num(f[1])
			if err != nil || v < 0 {
				return nil, bad("bad cap limit")
			}
			b.CapLimit = v
		case "sink":
			if len(f) != 5 {
				return nil, bad("sink needs name x y cap")
			}
			x, err1 := num(f[2])
			y, err2 := num(f[3])
			c, err3 := num(f[4])
			if err1 != nil || err2 != nil || err3 != nil || c < 0 {
				return nil, bad("bad sink fields")
			}
			b.Sinks = append(b.Sinks, dme.Sink{Name: f[1], Loc: geom.Pt(x, y), Cap: c})
		case "obstacle":
			if len(f) != 6 {
				return nil, bad("obstacle needs name and 4 coordinates")
			}
			var v [4]float64
			for i := 0; i < 4; i++ {
				x, err := num(f[i+2])
				if err != nil {
					return nil, bad("bad coordinate")
				}
				v[i] = x
			}
			b.Obstacles = append(b.Obstacles, geom.Obstacle{
				Name: f[1], Rect: geom.NewRect(v[0], v[1], v[2], v[3]),
			})
		default:
			return nil, bad("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(b.Sinks) == 0 {
		return nil, fmt.Errorf("bench: no sinks in benchmark")
	}
	if b.Die.Empty() {
		return nil, fmt.Errorf("bench: missing or empty die")
	}
	return b, nil
}
