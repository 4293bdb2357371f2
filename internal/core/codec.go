package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"contango/internal/bench"
	"contango/internal/ctree"
	"contango/internal/eval"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/tech"
)

// Clone returns a deep copy of the result: its own benchmark, tree and
// stage slice, sharing only the immutable technology model. The service
// layer hands out clones at its cache boundary so callers can freely
// mutate what they were given without corrupting cached entries that
// other submissions will be served from.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	cp := *r
	if r.Benchmark != nil {
		cp.Benchmark = r.Benchmark.Clone()
	}
	if r.Tree != nil {
		cp.Tree = r.Tree.Clone()
	}
	cp.Stages = append([]StageRecord(nil), r.Stages...)
	return &cp
}

// codecVersion stamps encoded results; DecodeResult rejects unknown
// versions instead of guessing at a future layout.
const codecVersion = 1

// The envelope is one JSON object, written exactly as encoding/json would
// write this shape (HTML-safe strings, shortest round-trip floats,
// omitempty fields left out when zero):
//
//	{"version":1,"bench":<bench.Write text>,
//	 "tree":{"source_r":R,"tech":{...},"nodes":[<node or null>,...]},
//	 "stages":[...],"final":{...},"runs":N,"elapsed_ns":N,"stage_sims":N,
//	 "stage_reuses":N,"buffers":N,"inverted_sinks":N,"added_inverters":N,
//	 "legalization":{...},"composite":{...}}
//
// The benchmark rides along as its canonical text serialization (the same
// bytes its content hash is computed over) and the tree as a flat node
// table, slot i as node i with null for a dead slot:
//
//	{"kind":K,"loc":{"X":x,"Y":y},"parent":P,"children":[...],
//	 "route":[{"X":x,"Y":y},...],"width_idx":W,"snake":S,
//	 "buf":{"Type":{"Name":"...","Cin":c,"Cout":c,"Rout":r},"N":n},
//	 "sink_cap":C,"name":"..."}
//
// where children, route, width_idx, snake, buf, sink_cap and name are left
// out when empty or zero. The node table streams straight from and into
// the arena's columns; the small parts go through encoding/json.

// envelopeTail is the envelope after the tree, in field order.
type envelopeTail struct {
	Stages         []StageRecord  `json:"stages"`
	Final          eval.Metrics   `json:"final"`
	Runs           int            `json:"runs"`
	ElapsedNs      int64          `json:"elapsed_ns"`
	StageSims      int            `json:"stage_sims"`
	StageReuses    int            `json:"stage_reuses"`
	Buffers        int            `json:"buffers"`
	InvertedSinks  int            `json:"inverted_sinks"`
	AddedInverters int            `json:"added_inverters"`
	Legalization   route.Report   `json:"legalization"`
	Composite      tech.Composite `json:"composite"`
}

// EncodeResult serializes a synthesis result for the durable store. The
// encoding is self-contained (benchmark, technology model, full tree,
// metric history and counters) and round-trips exactly: floats are
// rendered in Go's shortest round-trip form, so DecodeResult(EncodeResult(r))
// reproduces r field for field. A NaN or infinite float fails the encode
// with encoding/json's error before anything is written.
func EncodeResult(w io.Writer, r *Result) error {
	if r == nil {
		return fmt.Errorf("core: cannot encode nil result")
	}
	var benchText []byte
	if r.Benchmark != nil {
		var bb bytes.Buffer
		bb.Grow(256 + 80*(len(r.Benchmark.Sinks)+len(r.Benchmark.Obstacles))) // about a line each
		if err := bench.Write(&bb, r.Benchmark); err != nil {
			return fmt.Errorf("core: encode benchmark: %w", err)
		}
		benchText = bb.Bytes()
	}
	var a *ctree.Arena
	var techJSON []byte
	if r.Tree != nil {
		a = r.Tree.Arena()
		err := checkFinite(a.SourceR)
		if err == nil {
			techJSON, err = json.Marshal(a.Tech)
		}
		if err == nil {
			err = checkNodes(a)
		}
		if err != nil {
			return fmt.Errorf("core: encode result: %w", err)
		}
	}
	tail, err := json.Marshal(envelopeTail{
		Stages:         r.Stages,
		Final:          r.Final,
		Runs:           r.Runs,
		ElapsedNs:      int64(r.Elapsed),
		StageSims:      r.StageSims,
		StageReuses:    r.StageReuses,
		Buffers:        r.Buffers,
		InvertedSinks:  r.InvertedSinks,
		AddedInverters: r.AddedInverters,
		Legalization:   r.Legalization,
		Composite:      r.Composite,
	})
	if err != nil {
		return fmt.Errorf("core: encode result: %w", err)
	}

	// The first nodes are formatted ahead, so that a growable destination
	// (a bytes.Buffer) can be sized from them before the first byte goes
	// out instead of doubling its way up.
	floats := new(floatCache)
	var first []byte
	n, firstN := 0, 0
	if a != nil {
		n = a.Len()
		firstN = min(n, sizingSlots)
		first = floats.appendNodes(nil, a, 0, firstN)
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		size := 256 + len(benchText) + bytes.Count(benchText, []byte{'\n'}) + len(techJSON) + len(tail)
		if firstN > 0 {
			size += len(first) * n / firstN
		}
		g.Grow(size + size/10)
	}

	out := envWriter{w: w, b: make([]byte, 0, 64<<10)}
	b := append(out.b, `{"version":`...)
	b = strconv.AppendInt(b, codecVersion, 10)
	b = append(b, `,"bench":"`...)
	// Escaped line by line: a newline never falls inside a UTF-8
	// sequence, so the pieces escape as the whole text would.
	for text := benchText; len(text) > 0; {
		k := len(text)
		if k > benchChunk {
			if nl := bytes.IndexByte(text[benchChunk:], '\n'); nl >= 0 {
				k = benchChunk + nl + 1
			}
		}
		b = appendJSONStringBody(b, text[:k])
		text = text[k:]
		if b = out.spill(b); out.err != nil {
			return fmt.Errorf("core: encode result: %w", out.err)
		}
	}
	b = append(b, `","tree":`...)
	if a == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, `{"source_r":`...)
		b = appendJSONFloat(b, a.SourceR)
		b = append(b, `,"tech":`...)
		b = append(b, techJSON...)
		b = append(b, `,"nodes":[`...)
		b = append(b, first...)
		for id := firstN; id < n; id += sizingSlots {
			b = floats.appendNodes(b, a, id, min(n, id+sizingSlots))
			if b = out.spill(b); out.err != nil {
				return fmt.Errorf("core: encode result: %w", out.err)
			}
		}
		b = append(b, "]}"...)
	}
	b = append(b, ',')
	b = append(b, tail[1:]...)
	b = append(b, '\n')
	out.b = b
	if err := out.flush(); err != nil {
		return fmt.Errorf("core: encode result: %w", err)
	}
	return nil
}

// sizingSlots is how many slots the encoder formats between writes, and
// ahead of the first one to size the destination.
const sizingSlots = 256

// benchChunk is about how much benchmark text the encoder escapes between
// writes.
const benchChunk = 16 << 10

// envWriter batches the encoder's output into writes of about its
// buffer's capacity.
type envWriter struct {
	w   io.Writer
	b   []byte
	err error
}

// spill writes b out once it fills half the buffer and returns the
// emptied buffer; otherwise it returns b as is.
func (e *envWriter) spill(b []byte) []byte {
	if len(b) < cap(e.b)/2 {
		return b
	}
	e.b = b
	e.err = e.flush()
	return e.b
}

func (e *envWriter) flush() error {
	_, err := e.w.Write(e.b)
	e.b = e.b[:0]
	return err
}

// checkNodes returns encoding/json's error for the first NaN or infinite
// float of the node table, in document order.
func checkNodes(a *ctree.Arena) error {
	for id := 0; id < a.Len(); id++ {
		if !a.Alive.Test(id) {
			continue
		}
		i := int32(id)
		for _, f := range [2]float64{a.Loc[i].X, a.Loc[i].Y} {
			if err := checkFinite(f); err != nil {
				return err
			}
		}
		for _, p := range a.Route(i) {
			if err := checkFinite(p.X); err != nil {
				return err
			}
			if err := checkFinite(p.Y); err != nil {
				return err
			}
		}
		if err := checkFinite(a.Snake[i]); err != nil {
			return err
		}
		if a.BufN[i] > 0 {
			t := a.BufType[i]
			for _, f := range [3]float64{t.Cin, t.Cout, t.Rout} {
				if err := checkFinite(f); err != nil {
					return err
				}
			}
		}
		if err := checkFinite(a.SinkCap[i]); err != nil {
			return err
		}
	}
	return nil
}

// floatCache remembers the node table's recent float renderings in a
// direct-mapped table keyed by the float's bits. Most coordinates repeat: a
// node's location is the last point of its own route and the first of
// each child's, and an L-shaped route's corner shares one coordinate with
// each end.
type floatCache struct {
	bits [1024]uint64
	n    [1024]uint8 // rendering length, 0 for an empty entry
	text [1024][32]byte
}

// appendFloat appends f as appendJSONFloat does.
func (c *floatCache) appendFloat(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	h := (bits * 0x9E3779B97F4A7C15) >> 54
	if n := c.n[h]; n > 0 && c.bits[h] == bits {
		return append(b, c.text[h][:n]...)
	}
	start := len(b)
	b = appendJSONFloat(b, f)
	if n := copy(c.text[h][:], b[start:]); n == len(b)-start {
		c.bits[h], c.n[h] = bits, uint8(n)
	}
	return b
}

// appendPoint appends p as {"X":x,"Y":y}.
func (c *floatCache) appendPoint(b []byte, p geom.Point) []byte {
	b = append(b, `{"X":`...)
	b = c.appendFloat(b, p.X)
	b = append(b, `,"Y":`...)
	b = c.appendFloat(b, p.Y)
	return append(b, '}')
}

// appendNodes appends the node-table entries of slots [from, to): the
// node object of a live slot, null for a dead one, each after a comma but
// the first of the table.
func (c *floatCache) appendNodes(b []byte, a *ctree.Arena, from, to int) []byte {
	for id := from; id < to; id++ {
		if id > 0 {
			b = append(b, ',')
		}
		if !a.Alive.Test(id) {
			b = append(b, "null"...)
		} else {
			b = c.appendNode(b, a, int32(id))
		}
	}
	return b
}

// appendNode appends live slot i's node object.
func (c *floatCache) appendNode(b []byte, a *ctree.Arena, i int32) []byte {
	b = append(b, `{"kind":`...)
	b = strconv.AppendUint(b, uint64(a.Kind[i]), 10)
	b = append(b, `,"loc":`...)
	b = c.appendPoint(b, a.Loc[i])
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, int64(a.Parent[i]), 10)
	if kids := a.Children(i); len(kids) > 0 {
		// Child order is semantic (traversal and evaluation order):
		// persist it explicitly rather than deriving it from parent links.
		b = append(b, `,"children":[`...)
		for j, c := range kids {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']')
	}
	if route := a.Route(i); len(route) > 0 {
		b = append(b, `,"route":[`...)
		for j, p := range route {
			if j > 0 {
				b = append(b, ',')
			}
			b = c.appendPoint(b, p)
		}
		b = append(b, ']')
	}
	if w := a.WidthIdx[i]; w != 0 {
		b = append(b, `,"width_idx":`...)
		b = strconv.AppendInt(b, int64(w), 10)
	}
	if s := a.Snake[i]; s != 0 {
		b = append(b, `,"snake":`...)
		b = c.appendFloat(b, s)
	}
	if n := a.BufN[i]; n > 0 {
		t := a.BufType[i]
		b = append(b, `,"buf":{"Type":{"Name":`...)
		b = appendJSONString(b, t.Name)
		b = append(b, `,"Cin":`...)
		b = c.appendFloat(b, t.Cin)
		b = append(b, `,"Cout":`...)
		b = c.appendFloat(b, t.Cout)
		b = append(b, `,"Rout":`...)
		b = c.appendFloat(b, t.Rout)
		b = append(b, `},"N":`...)
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, '}')
	}
	if sc := a.SinkCap[i]; sc != 0 {
		b = append(b, `,"sink_cap":`...)
		b = appendJSONFloat(b, sc)
	}
	if name := a.Name[i]; name != "" {
		b = append(b, `,"name":`...)
		b = appendJSONString(b, name)
	}
	return append(b, '}')
}

// DecodeResult parses a result previously written by EncodeResult and
// revalidates the rebuilt tree. Any structural damage — unknown version,
// unparsable benchmark, dangling node references, invariant violations —
// is an error; the durable store treats it as corruption. It decodes the
// first JSON value of rd and ignores any bytes after it. Fields may come
// in any order and missing ones read as zero, but an unknown or repeated
// field, raw invalid UTF-8 in a string or a number literal over 64 bytes
// is an error.
func DecodeResult(rd io.Reader) (*Result, error) {
	d := newJSONReader(rd)
	res := &Result{}
	var (
		version   int
		elapsedNs int64
		tree      *nodeTable
		seen      uint32
	)
	err := d.object(func(key []byte) error {
		var bit uint32
		var err error
		switch string(key) {
		case "version":
			bit, err = 1<<0, d.unmarshal(&version)
		case "bench":
			bit = 1 << 1
			if null, nerr := d.null(); nerr != nil || null {
				err = nerr
				break
			}
			res.Benchmark, err = readBench(d)
		case "tree":
			bit = 1 << 2
			if null, nerr := d.null(); nerr != nil || null {
				err = nerr
				break
			}
			tree = &nodeTable{root: -1}
			if res.Benchmark != nil {
				// The benchmark precedes the tree in every envelope
				// EncodeResult writes: size the columns from its sinks.
				tree.a.Reserve(ctree.HintsForSinks(len(res.Benchmark.Sinks)))
			}
			err = tree.read(d)
		case "stages":
			bit, err = 1<<3, d.unmarshal(&res.Stages)
		case "final":
			bit, err = 1<<4, d.unmarshal(&res.Final)
		case "runs":
			bit, err = 1<<5, d.unmarshal(&res.Runs)
		case "elapsed_ns":
			bit, err = 1<<6, d.unmarshal(&elapsedNs)
		case "stage_sims":
			bit, err = 1<<7, d.unmarshal(&res.StageSims)
		case "stage_reuses":
			bit, err = 1<<8, d.unmarshal(&res.StageReuses)
		case "buffers":
			bit, err = 1<<9, d.unmarshal(&res.Buffers)
		case "inverted_sinks":
			bit, err = 1<<10, d.unmarshal(&res.InvertedSinks)
		case "added_inverters":
			bit, err = 1<<11, d.unmarshal(&res.AddedInverters)
		case "legalization":
			bit, err = 1<<12, d.unmarshal(&res.Legalization)
		case "composite":
			bit, err = 1<<13, d.unmarshal(&res.Composite)
		default:
			return d.syntaxErr("unknown field %q", key)
		}
		if seen&bit != 0 {
			return d.syntaxErr("repeated field")
		}
		seen |= bit
		return err
	})
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("core: decode result: unsupported version %d", version)
	}
	res.Elapsed = time.Duration(elapsedNs)
	if tree != nil {
		tr, err := tree.finish()
		if err != nil {
			return nil, err
		}
		res.Tree = tr
	}
	return res, nil
}

// readBench parses the envelope's benchmark string with bench.Read as it
// streams in; the empty string is no benchmark.
func readBench(d *jsonReader) (*bench.Benchmark, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	if d.ensure(1); d.r < d.w && d.buf[d.r] == '"' {
		d.r++
		return nil, nil
	}
	sr := &stringReader{d: d}
	b, err := bench.Read(sr)
	for err == nil && !sr.done && sr.err == nil {
		sr.scratch, sr.done, sr.err = d.strPart(sr.scratch[:0], 32<<10)
	}
	switch {
	case sr.err != nil:
		return nil, sr.err
	case err != nil:
		return nil, fmt.Errorf("core: decode benchmark: %w", err)
	}
	return b, nil
}

// nodeTable rebuilds an arena from the envelope's tree object, node i as
// slot i, filling the columns as the nodes stream in. Errors in the tree's
// content (as opposed to its syntax) wait for finish, which reports them
// after the rest of the envelope has been read, as the tree is the last
// thing DecodeResult checks.
type nodeTable struct {
	a    ctree.Arena
	root int32
	err  error // the first content error seen while reading

	// Sink names land in one byte buffer and become substrings of one
	// string in finish: named[k] is the slot of the k-th name, which ends
	// at nameEnd[k].
	names   []byte
	named   []int32
	nameEnd []int
	// inverterNames interns the buffers' type names.
	inverterNames map[string]string
}

// fail records err unless an earlier content error is already recorded.
func (t *nodeTable) fail(format string, args ...any) {
	if t.err == nil {
		t.err = fmt.Errorf("core: decode tree: "+format, args...)
	}
}

// read consumes the tree object.
func (t *nodeTable) read(d *jsonReader) error {
	var seen uint8
	return d.object(func(key []byte) error {
		var bit uint8
		var err error
		switch string(key) {
		case "source_r":
			bit, err = 1<<0, d.unmarshal(&t.a.SourceR)
		case "tech":
			bit, err = 1<<1, d.unmarshal(&t.a.Tech)
		case "nodes":
			bit = 1 << 2
			if null, nerr := d.null(); nerr != nil || null {
				err = nerr
				break
			}
			err = d.array(func() error { return t.node(d) })
		default:
			return d.syntaxErr("unknown tree field %q", key)
		}
		if seen&bit != 0 {
			return d.syntaxErr("repeated tree field")
		}
		seen |= bit
		return err
	})
}

// node consumes one node-table entry into the next slot.
func (t *nodeTable) node(d *jsonReader) error {
	a := &t.a
	if len(a.Kind) == math.MaxInt32 {
		return d.syntaxErr("more than %d nodes", math.MaxInt32)
	}
	i := int32(len(a.Kind))
	a.Kind = append(a.Kind, 0)
	a.Loc = append(a.Loc, geom.Point{})
	a.Parent = append(a.Parent, -1)
	a.WidthIdx = append(a.WidthIdx, 0)
	a.Snake = append(a.Snake, 0)
	a.SinkCap = append(a.SinkCap, 0)
	a.Name = append(a.Name, "")
	a.BufN = append(a.BufN, 0)
	a.BufType = append(a.BufType, tech.InverterType{})
	a.ChildOff = append(a.ChildOff, 0)
	a.ChildLen = append(a.ChildLen, 0)
	a.RouteOff = append(a.RouteOff, 0)
	a.RouteLen = append(a.RouteLen, 0)
	if null, err := d.null(); err != nil || null {
		return err // a dead slot
	}
	a.Alive.Set(int(i))
	a.Parent[i] = 0 // a missing parent reads as slot 0
	a.ChildOff[i], a.RouteOff[i] = int32(len(a.ChildIdx)), int32(len(a.RoutePts))
	var seen uint16
	err := d.object(func(key []byte) error {
		var bit uint16
		var err error
		switch string(key) {
		case "kind":
			bit = 1 << 0
			var k int64
			k, err = d.int(0, math.MaxUint8)
			a.Kind[i] = ctree.Kind(k)
		case "loc":
			bit, err = 1<<1, t.point(d, &a.Loc[i])
		case "parent":
			bit = 1 << 2
			var p int64
			if p, err = d.int(math.MinInt64, math.MaxInt64); err == nil && p >= 0 {
				if p > math.MaxInt32 {
					t.fail("node %d has dangling parent %d", i, p)
					p = math.MaxInt32
				}
				a.Parent[i] = int32(p)
			} else if err == nil {
				a.Parent[i] = -1
			}
		case "children":
			bit = 1 << 3
			err = d.array(func() error {
				c, err := d.int(math.MinInt64, math.MaxInt64)
				if err == nil && (c < 0 || c > math.MaxInt32) {
					t.fail("node %d has dangling child %d", i, c)
					c = -1
				}
				a.ChildIdx = append(a.ChildIdx, int32(c))
				return err
			})
			a.ChildLen[i] = int32(len(a.ChildIdx)) - a.ChildOff[i]
		case "route":
			bit = 1 << 4
			err = d.array(func() error {
				a.RoutePts = append(a.RoutePts, geom.Point{})
				return t.point(d, &a.RoutePts[len(a.RoutePts)-1])
			})
			a.RouteLen[i] = int32(len(a.RoutePts)) - a.RouteOff[i]
		case "width_idx":
			bit = 1 << 5
			var w int64
			if w, err = d.int(math.MinInt64, math.MaxInt64); err == nil {
				if w != int64(int32(w)) {
					t.fail("node %d bad width index %d", i, w)
				}
				a.WidthIdx[i] = int32(w)
			}
		case "snake":
			bit = 1 << 6
			a.Snake[i], err = d.float()
		case "buf":
			bit, err = 1<<7, t.buf(d, i)
		case "sink_cap":
			bit = 1 << 8
			a.SinkCap[i], err = d.float()
		case "name":
			bit = 1 << 9
			if t.names, err = d.str(t.names); err == nil {
				t.named = append(t.named, i)
				t.nameEnd = append(t.nameEnd, len(t.names))
			}
		default:
			return d.syntaxErr("unknown node field %q", key)
		}
		if seen&bit != 0 {
			return d.syntaxErr("repeated node field")
		}
		seen |= bit
		return err
	})
	if err == nil && a.Kind[i] == ctree.Source {
		if t.root >= 0 {
			t.fail("two source nodes (%d and %d)", t.root, i)
		}
		t.root = i
	}
	return err
}

// point consumes a {"X":x,"Y":y} object into p.
func (t *nodeTable) point(d *jsonReader, p *geom.Point) error {
	// The member loop of jsonReader.object, unrolled: points are most of
	// the node table.
	if err := d.expect('{'); err != nil {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		c, ok := d.next()
		switch {
		case !ok:
			return d.eofErr()
		case c == '}':
			d.r++
			return nil
		case !first && c != ',':
			return d.syntaxErr("want ',' or '}' after an object member")
		case !first:
			d.r++
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		var bit uint8
		switch {
		case len(key) == 1 && key[0] == 'X':
			bit = 1 << 0
			p.X, err = d.float()
		case len(key) == 1 && key[0] == 'Y':
			bit = 1 << 1
			p.Y, err = d.float()
		default:
			return d.syntaxErr("unknown point field %q", key)
		}
		if seen&bit != 0 {
			return d.syntaxErr("repeated point field")
		}
		seen |= bit
		if err != nil {
			return err
		}
	}
}

// buf consumes slot i's composite, {"Type":{...},"N":n}.
func (t *nodeTable) buf(d *jsonReader, i int32) error {
	a := &t.a
	var typ tech.InverterType
	var n int64
	var seen uint8
	err := d.object(func(key []byte) error {
		var bit uint8
		var err error
		switch string(key) {
		case "Type":
			bit, err = 1<<0, t.inverterType(d, &typ)
		case "N":
			bit = 1 << 1
			n, err = d.int(math.MinInt64, math.MaxInt64)
		default:
			return d.syntaxErr("unknown composite field %q", key)
		}
		if seen&bit != 0 {
			return d.syntaxErr("repeated composite field")
		}
		seen |= bit
		return err
	})
	if err != nil {
		return err
	}
	if n < 1 || n > math.MaxInt32 {
		t.fail("node %d has a composite of %d inverters", i, n)
	}
	a.SetBuf(i, tech.Composite{Type: typ, N: int(n)})
	return nil
}

// inverterType consumes an inverter type object into typ.
func (t *nodeTable) inverterType(d *jsonReader, typ *tech.InverterType) error {
	var seen uint8
	return d.object(func(key []byte) error {
		var bit uint8
		var err error
		switch string(key) {
		case "Name":
			bit = 1 << 0
			var name []byte
			if name, err = d.str(nil); err == nil {
				typ.Name = t.intern(name)
			}
		case "Cin":
			bit = 1 << 1
			typ.Cin, err = d.float()
		case "Cout":
			bit = 1 << 2
			typ.Cout, err = d.float()
		case "Rout":
			bit = 1 << 3
			typ.Rout, err = d.float()
		default:
			return d.syntaxErr("unknown inverter field %q", key)
		}
		if seen&bit != 0 {
			return d.syntaxErr("repeated inverter field")
		}
		seen |= bit
		return err
	})
}

// intern returns name as a string shared by every buffer of that type.
func (t *nodeTable) intern(name []byte) string {
	if s, ok := t.inverterNames[string(name)]; ok {
		return s
	}
	if t.inverterNames == nil {
		t.inverterNames = make(map[string]string)
	}
	s := string(name)
	t.inverterNames[s] = s
	return s
}

// finish checks the node table's references, sets the root and validates
// the arena (Arena.Validate): a tree read back from disk is trusted exactly
// as far as a freshly synthesized one.
func (t *nodeTable) finish() (*ctree.Tree, error) {
	a := &t.a
	if a.Tech == nil {
		return nil, fmt.Errorf("core: decode tree: missing technology model")
	}
	if t.err != nil {
		return nil, t.err
	}
	n := a.Len()
	live := func(id int32) bool { return id >= 0 && int(id) < n && a.Alive.Test(int(id)) }
	for id := 0; id < n; id++ {
		i := int32(id)
		if !a.Alive.Test(id) {
			continue
		}
		if p := a.Parent[i]; p >= 0 && !live(p) {
			return nil, fmt.Errorf("core: decode tree: node %d has dangling parent %d", id, p)
		}
		for _, c := range a.Children(i) {
			if !live(c) {
				return nil, fmt.Errorf("core: decode tree: node %d has dangling child %d", id, c)
			}
		}
	}
	if t.root < 0 {
		return nil, fmt.Errorf("core: decode tree: no source node")
	}
	if len(t.named) > 0 {
		all := string(t.names)
		start := 0
		for k, i := range t.named {
			a.Name[i] = all[start:t.nameEnd[k]]
			start = t.nameEnd[k]
		}
	}
	a.SetRoot(t.root)
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: decode tree: %w", err)
	}
	return ctree.NewTree(a), nil
}
