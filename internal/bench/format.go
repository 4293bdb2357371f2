package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

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
	// Numbers render as fmt's %g does (strconv's shortest 'g' form); the
	// text is built with appends, one line at a time, because the hash
	// and the result envelope write every sink.
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 128)
	num := func(v float64) {
		line = append(line, ' ')
		line = strconv.AppendFloat(line, v, 'g', -1, 64)
	}
	flush := func() {
		line = append(line, '\n')
		bw.Write(line)
		line = line[:0]
	}
	bw.WriteString("# contango benchmark\nname ")
	bw.WriteString(b.Name)
	bw.WriteString("\ndie")
	num(b.Die.MinX)
	num(b.Die.MinY)
	num(b.Die.MaxX)
	num(b.Die.MaxY)
	line = append(line, "\nsource"...)
	num(b.Source.X)
	num(b.Source.Y)
	line = append(line, "\nsourcer"...)
	num(b.SourceR)
	line = append(line, "\ncaplimit"...)
	num(b.CapLimit)
	flush()
	for _, s := range b.Sinks {
		line = append(line, "sink "...)
		line = append(line, s.Name...)
		num(s.Loc.X)
		num(s.Loc.Y)
		num(s.Cap)
		flush()
	}
	for _, o := range b.Obstacles {
		line = append(line, "obstacle "...)
		line = append(line, o.Name...)
		num(o.Rect.MinX)
		num(o.Rect.MinY)
		num(o.Rect.MaxX)
		num(o.Rect.MaxY)
		flush()
	}
	return bw.Flush()
}

// Read parses the text format written by Write. Numbers must be finite.
func Read(r io.Reader) (*Benchmark, error) {
	b := &Benchmark{SourceR: 0.1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	lineNo := 0
	var fieldBuf [8][]byte
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			// Scale-generated files carry a "# sinks n" hint so the sink
			// slice can be sized once instead of doubling its way up.
			if f := fields(fieldBuf[:0], line); len(f) == 3 && string(f[0]) == "#" && string(f[1]) == "sinks" {
				if n, err := strconv.Atoi(string(f[2])); err == nil && n > 0 && n <= 4<<20 && b.Sinks == nil {
					b.Sinks = make([]dme.Sink, 0, n)
				}
			}
			continue
		}
		f := fields(fieldBuf[:0], line)
		bad := func(why string) error {
			return fmt.Errorf("bench: line %d: %s: %q", lineNo, why, line)
		}
		num := func(s []byte) (float64, error) {
			v, err := strconv.ParseFloat(string(s), 64)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("non-finite number %q", s)
			}
			return v, err
		}
		switch string(f[0]) {
		case "name":
			if len(f) > 2 {
				return nil, bad("name takes at most 1 argument")
			}
			b.Name = ""
			if len(f) == 2 {
				b.Name = string(f[1])
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
			b.Sinks = append(b.Sinks, dme.Sink{Name: string(f[1]), Loc: geom.Pt(x, y), Cap: c})
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
				Name: string(f[1]), Rect: geom.NewRect(v[0], v[1], v[2], v[3]),
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

// fields splits line around runs of white space exactly as strings.Fields
// does, appending views of line to dst. A line with a non-ASCII byte goes
// through strings.Fields itself, for its Unicode white space.
func fields(dst [][]byte, line []byte) [][]byte {
	for _, c := range line {
		if c >= utf8.RuneSelf {
			for _, f := range strings.Fields(string(line)) {
				dst = append(dst, []byte(f))
			}
			return dst
		}
	}
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		j := i
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		if j > i {
			dst = append(dst, line[i:j])
		}
		i = j
	}
	return dst
}

// asciiSpace reports the ASCII bytes unicode.IsSpace accepts.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}
