package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"contango/internal/analysis"
	"contango/internal/core"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// span is one timed call into a contango layer, kept in memory until the
// workload ends. Parent indexes the enclosing span (-1 for an operation's
// root). Allocations and GC cycles are runtime/metrics deltas over the span.
// Tid separates concurrent jobs in the Chrome trace (0 renders as 1).
type span struct {
	Name   string
	Parent int
	Tid    int
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Alloc  uint64 // heap bytes allocated
	GCs    uint64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects the spans of one workload process. The flow calls its
// hooks from the synthesizing goroutine only, one operation at a time, so
// it needs no locking.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		origin: time.Now(),
		sample: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

func (r *recorder) counters() (alloc, gcs uint64) {
	metrics.Read(r.sample)
	if r.sample[0].Value.Kind() == metrics.KindUint64 {
		alloc = r.sample[0].Value.Uint64()
	}
	if r.sample[1].Value.Kind() == metrics.KindUint64 {
		gcs = r.sample[1].Value.Uint64()
	}
	return alloc, gcs
}

// begin opens a span named name under the innermost open span and returns
// the func that closes it. A nil recorder records nothing, so untraced
// operations run the same code with no hooks installed.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	alloc, gcs := r.counters()
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: time.Since(r.origin), Alloc: alloc, GCs: gcs})
	r.stack = append(r.stack, idx)
	return func() {
		alloc, gcs := r.counters()
		s := &r.spans[idx]
		s.End = time.Since(r.origin)
		s.Alloc = alloc - s.Alloc
		s.GCs = gcs - s.GCs
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// passSpan maps the flow's SpanHook phases onto layer-named spans: each
// construction pass belongs to the module that implements it, the cascade
// passes to opt, and evaluator arming to flow.
var passSpan = map[string]string{
	"pass/zst":         "dme.zst",
	"pass/legalize":    "route.legalize",
	"pass/buffer":      "buffering.buffer",
	"pass/polarity":    "buffering.polarity",
	"pass/tbsz":        "opt.tbsz",
	"pass/twsz":        "opt.twsz",
	"pass/twsn":        "opt.twsn",
	"pass/bwsn":        "opt.bwsn",
	"pass/eco":         "core.eco_pass",
	"eco/restore":      "eco.restore",
	"eco/apply":        "eco.apply",
	"eval/corner_eval": "flow.arm",
}

// install sets the public flow hooks on o so passes, evaluator arming and
// every accurate evaluation open spans. Hooks never change results.
func (r *recorder) install(o *core.Options) {
	if r == nil {
		return
	}
	o.SpanHook = func(kind, name string) func() {
		n, ok := passSpan[kind+"/"+name]
		if !ok {
			n = "flow." + kind + "_" + name
		}
		return r.begin(n)
	}
	o.WrapEval = func(ev analysis.Evaluator) analysis.Evaluator { return &tracedEval{inner: ev, r: r} }
}

// tracedEval forwards every accurate evaluation to the flow's evaluator
// inside a spice.cne span, keeping the optional methods the optimization
// context looks for.
type tracedEval struct {
	inner analysis.Evaluator
	r     *recorder
}

func (t *tracedEval) Name() string { return t.inner.Name() }

func (t *tracedEval) Evaluate(tr *ctree.Tree, c tech.Corner) (*analysis.Result, error) {
	defer t.r.begin("spice.cne")()
	return t.inner.Evaluate(tr, c)
}

func (t *tracedEval) EvaluateCorners(tr *ctree.Tree, cs []tech.Corner) ([]*analysis.Result, error) {
	defer t.r.begin("spice.cne")()
	if ce, ok := t.inner.(analysis.CornerEvaluator); ok {
		return ce.EvaluateCorners(tr, cs)
	}
	out := make([]*analysis.Result, 0, len(cs))
	for _, c := range cs {
		res, err := t.inner.Evaluate(tr, c)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func (t *tracedEval) SetParallelism(n int) {
	if pe, ok := t.inner.(interface{ SetParallelism(int) }); ok {
		pe.SetParallelism(n)
	}
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span never overlap: the hooks fire on one
// goroutine.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	AllocMB float64 `json:"alloc_mb"`
}

// layerTable aggregates spans by name, largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for i, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Calls++
		row.TotalS += s.dur().Seconds()
		row.SelfS += self[i].Seconds()
		row.AllocMB += float64(s.Alloc) / mib
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// printLayerTable writes the self-time table of a traced run.
func printLayerTable(w io.Writer, rows []layerRow, opTotal float64) {
	fmt.Fprintf(w, "  %-22s %7s %10s %10s %6s %10s\n", "span", "calls", "total_s", "self_s", "self%", "alloc_mb")
	for _, r := range rows {
		pct := 0.0
		if opTotal > 0 {
			pct = 100 * r.SelfS / opTotal
		}
		fmt.Fprintf(w, "  %-22s %7d %10.4f %10.4f %6.1f %10.1f\n", r.Name, r.Calls, r.TotalS, r.SelfS, pct, r.AllocMB)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, loadable
// in about:tracing and Perfetto. Each event carries its span id and parent.
func writeChromeTrace(path string, spans []span) error {
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		evs[i] = chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X", Pid: 1, Tid: max(s.Tid, 1),
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]interface{}{"id": i, "parent": s.Parent, "alloc_mb": float64(s.Alloc) / mib, "gc_cycles": s.GCs},
		}
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const mib = 1 << 20
