package core

// The reflection-based envelope codec the streaming one in codec.go
// replaced, kept as the test oracle for FuzzDecodeResult and the encoder
// byte tests.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"contango/internal/bench"
	"contango/internal/ctree"
	"contango/internal/eval"
	"contango/internal/geom"
	"contango/internal/route"
	"contango/internal/tech"
)

// resultEnvelope is the persisted JSON shape of a Result. The benchmark
// rides along as its canonical text serialization (bench.Write) — the
// same bytes its content hash is computed over — and the tree as a flat
// node table (slot i as node i), so decoding rebuilds a Result whose wire
// rendering is bit-identical to the original's.
type resultEnvelope struct {
	Version        int            `json:"version"`
	Bench          string         `json:"bench"`
	Tree           *treeEnvelope  `json:"tree"`
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

type treeEnvelope struct {
	SourceR float64         `json:"source_r"`
	Tech    *tech.Tech      `json:"tech"`
	Nodes   []*nodeEnvelope `json:"nodes"` // dense by ID; null marks deleted IDs
}

type nodeEnvelope struct {
	Kind     uint8           `json:"kind"`
	Loc      geom.Point      `json:"loc"`
	Parent   int             `json:"parent"` // -1 on the root
	Children []int           `json:"children,omitempty"`
	Route    geom.Polyline   `json:"route,omitempty"`
	WidthIdx int             `json:"width_idx,omitempty"`
	Snake    float64         `json:"snake,omitempty"`
	Buf      *tech.Composite `json:"buf,omitempty"`
	SinkCap  float64         `json:"sink_cap,omitempty"`
	Name     string          `json:"name,omitempty"`
}

// oracleEncodeResult is the reflection encoder EncodeResult replaced: the
// envelope built in memory as nodeEnvelope values and written by one
// json.Encoder. EncodeResult must match its bytes exactly.
func oracleEncodeResult(w io.Writer, r *Result) error {
	if r == nil {
		return fmt.Errorf("core: cannot encode nil result")
	}
	env := resultEnvelope{
		Version:        codecVersion,
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
	}
	if r.Benchmark != nil {
		var bb bytes.Buffer
		if err := bench.Write(&bb, r.Benchmark); err != nil {
			return fmt.Errorf("core: encode benchmark: %w", err)
		}
		env.Bench = bb.String()
	}
	if r.Tree != nil {
		env.Tree = oracleEncodeTree(r.Tree.Arena())
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&env); err != nil {
		return fmt.Errorf("core: encode result: %w", err)
	}
	return nil
}

// encodeTree serializes the arena slot by slot, slot i as node i: parent
// slots, explicit child order, and null entries for dead slots.
func oracleEncodeTree(a *ctree.Arena) *treeEnvelope {
	env := &treeEnvelope{
		SourceR: a.SourceR,
		Tech:    a.Tech,
		Nodes:   make([]*nodeEnvelope, a.Len()),
	}
	for id := range env.Nodes {
		if !a.Alive.Test(id) {
			continue
		}
		i := int32(id)
		ne := &nodeEnvelope{
			Kind:     uint8(a.Kind[i]),
			Loc:      a.Loc[i],
			Parent:   int(a.Parent[i]),
			Route:    a.Route(i),
			WidthIdx: int(a.WidthIdx[i]),
			Snake:    a.Snake[i],
			SinkCap:  a.SinkCap[i],
			Name:     a.Name[i],
		}
		if comp, ok := a.Buf(i); ok {
			ne.Buf = new(tech.Composite)
			*ne.Buf = comp
		}
		if kids := a.Children(i); len(kids) > 0 {
			// Child order is semantic (traversal and evaluation order):
			// persist it explicitly rather than deriving it from parent
			// links.
			ne.Children = make([]int, len(kids))
			for j, c := range kids {
				ne.Children[j] = int(c)
			}
		}
		env.Nodes[id] = ne
	}
	return env
}

// oracleDecodeResult is the reflection decoder DecodeResult replaced:
// encoding/json into the envelope types, then the arena built from the
// node table. DecodeResult may reject more than it, never less, and every
// envelope both accept must give the same result.
func oracleDecodeResult(rd io.Reader) (*Result, error) {
	var env resultEnvelope
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	if env.Version != codecVersion {
		return nil, fmt.Errorf("core: decode result: unsupported version %d", env.Version)
	}
	res := &Result{
		Stages:         env.Stages,
		Final:          env.Final,
		Runs:           env.Runs,
		Elapsed:        time.Duration(env.ElapsedNs),
		StageSims:      env.StageSims,
		StageReuses:    env.StageReuses,
		Buffers:        env.Buffers,
		InvertedSinks:  env.InvertedSinks,
		AddedInverters: env.AddedInverters,
		Legalization:   env.Legalization,
		Composite:      env.Composite,
	}
	if env.Bench != "" {
		b, err := bench.Read(strings.NewReader(env.Bench))
		if err != nil {
			return nil, fmt.Errorf("core: decode benchmark: %w", err)
		}
		res.Benchmark = b
	}
	if env.Tree != nil {
		tr, err := oracleDecodeTree(env.Tree)
		if err != nil {
			return nil, err
		}
		res.Tree = tr
	}
	return res, nil
}

// decodeTree rebuilds the arena straight from the node table, node i as
// slot i, and validates it (Arena.Validate): a tree read back from disk is
// trusted exactly as far as a freshly synthesized one.
func oracleDecodeTree(env *treeEnvelope) (*ctree.Tree, error) {
	if env.Tech == nil {
		return nil, fmt.Errorf("core: decode tree: missing technology model")
	}
	n := len(env.Nodes)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: decode tree: %d nodes", n)
	}
	nPts, nKids := 0, 0
	for _, ne := range env.Nodes {
		if ne != nil {
			nPts += len(ne.Route)
			nKids += len(ne.Children)
		}
	}
	a := &ctree.Arena{
		Tech:     env.Tech,
		SourceR:  env.SourceR,
		Kind:     make([]ctree.Kind, n),
		Loc:      make([]geom.Point, n),
		Parent:   make([]int32, n),
		WidthIdx: make([]int32, n),
		Snake:    make([]float64, n),
		SinkCap:  make([]float64, n),
		Name:     make([]string, n),
		BufN:     make([]int32, n),
		BufType:  make([]tech.InverterType, n),
		ChildOff: make([]int32, n),
		ChildLen: make([]int32, n),
		ChildIdx: make([]int32, 0, nKids),
		RouteOff: make([]int32, n),
		RouteLen: make([]int32, n),
		RoutePts: make([]geom.Point, 0, nPts),
	}
	live := func(id int) bool { return id >= 0 && id < n && env.Nodes[id] != nil }
	root := -1
	for id, ne := range env.Nodes {
		a.Parent[id] = -1
		if ne == nil {
			continue
		}
		i := int32(id)
		switch {
		case ne.Parent >= 0 && !live(ne.Parent):
			return nil, fmt.Errorf("core: decode tree: node %d has dangling parent %d", id, ne.Parent)
		case int(int32(ne.WidthIdx)) != ne.WidthIdx:
			return nil, fmt.Errorf("core: decode tree: node %d bad width index %d", id, ne.WidthIdx)
		case ne.Buf != nil && (ne.Buf.N < 1 || ne.Buf.N > math.MaxInt32):
			return nil, fmt.Errorf("core: decode tree: node %d has a composite of %d inverters", id, ne.Buf.N)
		case ctree.Kind(ne.Kind) == ctree.Source && root >= 0:
			return nil, fmt.Errorf("core: decode tree: two source nodes (%d and %d)", root, id)
		}
		if ctree.Kind(ne.Kind) == ctree.Source {
			root = id
		}
		a.Alive.Set(id)
		a.Kind[i], a.Loc[i], a.WidthIdx[i] = ctree.Kind(ne.Kind), ne.Loc, int32(ne.WidthIdx)
		a.Snake[i], a.SinkCap[i], a.Name[i] = ne.Snake, ne.SinkCap, ne.Name
		if ne.Parent >= 0 {
			a.Parent[i] = int32(ne.Parent)
		}
		if ne.Buf != nil {
			a.SetBuf(i, *ne.Buf)
		}
		a.RouteOff[i], a.RouteLen[i] = int32(len(a.RoutePts)), int32(len(ne.Route))
		a.RoutePts = append(a.RoutePts, ne.Route...)
		a.ChildOff[i], a.ChildLen[i] = int32(len(a.ChildIdx)), int32(len(ne.Children))
		for _, c := range ne.Children {
			if !live(c) {
				return nil, fmt.Errorf("core: decode tree: node %d has dangling child %d", id, c)
			}
			a.ChildIdx = append(a.ChildIdx, int32(c))
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("core: decode tree: no source node")
	}
	a.SetRoot(int32(root))
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: decode tree: %w", err)
	}
	return ctree.NewTree(a), nil
}
