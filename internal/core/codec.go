package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
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

// resultEnvelope is the persisted JSON shape of a Result. The benchmark
// rides along as its canonical text serialization (bench.Write) — the
// same bytes its content hash is computed over — and the tree as a flat
// node table, so decoding rebuilds a Result whose wire rendering is
// bit-identical to the original's.
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

// EncodeResult serializes a synthesis result for the durable store. The
// encoding is self-contained (benchmark, technology model, full tree,
// metric history and counters) and round-trips exactly: floats are
// rendered in Go's shortest round-trip form, so DecodeResult(EncodeResult(r))
// reproduces r field for field.
func EncodeResult(w io.Writer, r *Result) error {
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
		env.Tree = encodeTree(r.Tree)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&env); err != nil {
		return fmt.Errorf("core: encode result: %w", err)
	}
	return nil
}

// encodeTree serializes the tree node by node, dense by ID: Parent IDs,
// explicit child order, and null entries for dead IDs.
func encodeTree(tr *ctree.Tree) *treeEnvelope {
	env := &treeEnvelope{
		SourceR: tr.SourceR,
		Tech:    tr.Tech,
		Nodes:   make([]*nodeEnvelope, tr.MaxID()),
	}
	for id := range env.Nodes {
		n := tr.Node(id)
		if n == nil {
			continue
		}
		ne := &nodeEnvelope{
			Kind:     uint8(n.Kind),
			Loc:      n.Loc,
			Parent:   -1,
			Route:    n.Route,
			WidthIdx: n.WidthIdx,
			Snake:    n.Snake,
			Buf:      n.Buf,
			SinkCap:  n.SinkCap,
			Name:     n.Name,
		}
		if n.Parent != nil {
			ne.Parent = n.Parent.ID
		}
		if len(n.Children) > 0 {
			// Child order is semantic (traversal and evaluation order):
			// persist it explicitly rather than deriving it from parent
			// links.
			ne.Children = make([]int, len(n.Children))
			for j, c := range n.Children {
				ne.Children[j] = c.ID
			}
		}
		env.Nodes[id] = ne
	}
	return env
}

// DecodeResult parses a result previously written by EncodeResult and
// revalidates the rebuilt tree. Any structural damage — unknown version,
// unparsable benchmark, dangling node references, invariant violations —
// is an error; the durable store treats it as corruption.
func DecodeResult(rd io.Reader) (*Result, error) {
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
		tr, err := decodeTree(env.Tree)
		if err != nil {
			return nil, err
		}
		res.Tree = tr
	}
	return res, nil
}

func decodeTree(env *treeEnvelope) (*ctree.Tree, error) {
	if env.Tech == nil {
		return nil, fmt.Errorf("core: decode tree: missing technology model")
	}
	nodes := make([]*ctree.Node, len(env.Nodes))
	for id, ne := range env.Nodes {
		if ne == nil {
			continue
		}
		nodes[id] = &ctree.Node{
			ID:       id,
			Kind:     ctree.Kind(ne.Kind),
			Loc:      ne.Loc,
			Route:    ne.Route,
			WidthIdx: ne.WidthIdx,
			Snake:    ne.Snake,
			Buf:      ne.Buf,
			SinkCap:  ne.SinkCap,
			Name:     ne.Name,
		}
	}
	for id, ne := range env.Nodes {
		if ne == nil {
			continue
		}
		n := nodes[id]
		if ne.Parent >= 0 {
			if ne.Parent >= len(nodes) || nodes[ne.Parent] == nil {
				return nil, fmt.Errorf("core: decode tree: node %d has dangling parent %d", id, ne.Parent)
			}
			n.Parent = nodes[ne.Parent]
		}
		if len(ne.Children) > 0 {
			n.Children = make([]*ctree.Node, len(ne.Children))
			for i, cid := range ne.Children {
				if cid < 0 || cid >= len(nodes) || nodes[cid] == nil {
					return nil, fmt.Errorf("core: decode tree: node %d has dangling child %d", id, cid)
				}
				n.Children[i] = nodes[cid]
			}
		}
	}
	return ctree.Restore(env.Tech, env.SourceR, nodes)
}
