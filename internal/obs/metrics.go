// Package obs is Contango's zero-dependency observability core: a typed
// metrics registry (counters, gauges, histograms with fixed exponential
// buckets) with Prometheus text-format exposition, a lightweight span-tree
// tracer that exports Chrome trace-event JSON (trace.go), structured
// logging construction for log/slog front ends (log.go), and runtime
// gauges (runtime.go). The service, store and flow layers hold typed
// metric handles and update them on hot paths with a single atomic op;
// exposition walks the registry only when /metrics is scraped.
//
// Every mutating method is nil-receiver safe, so optional instrumentation
// (a store opened by the CLI without a registry, say) costs a predictable
// no-op instead of a nil check at every call site.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (n < 0 is ignored: counters are
// monotonic by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram accumulates observations into fixed buckets (cumulative on
// exposition, Prometheus-style) plus a running sum and count.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	n      atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplying by factor, for Histogram construction.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// labelSep joins label values into a vec child key; it cannot appear in
// UTF-8 label values supplied as Go strings without being intentional.
const labelSep = "\x1f"

// CounterVec is a family of Counters distinguished by label values.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	kids   map[string]*Counter
}

// With returns (creating if needed) the child counter for the given label
// values, which must match the vec's label names in number and order.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: counter vec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[key]
	if !ok {
		c = &Counter{}
		v.kids[key] = c
	}
	return c
}

// Total sums every child counter.
func (v *CounterVec) Total() int64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	var t int64
	for _, c := range v.kids {
		t += c.Value()
	}
	return t
}

// HistogramVec is a family of Histograms distinguished by label values.
type HistogramVec struct {
	labels []string
	bounds []float64
	mu     sync.Mutex
	kids   map[string]*Histogram
}

// With returns (creating if needed) the child histogram for the given
// label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: histogram vec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[key]
	if !ok {
		h = newHistogram(v.bounds)
		v.kids[key] = h
	}
	return h
}

// family is one registered metric under its exposition name.
type family struct {
	name, help string
	kind       string // "counter", "gauge", "histogram"

	c  *Counter
	gf func() float64
	h  *Histogram
	cv *CounterVec
	hv *HistogramVec
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Metric constructors are idempotent: asking for an
// already-registered name of the same kind returns the existing handle,
// while a kind or label mismatch panics (a programmer error, like
// registering two different metrics under one name).
type Registry struct {
	mu    sync.Mutex
	byNm  map[string]*family
	order []*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byNm: make(map[string]*family)}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	return validMetricName(s) && !strings.ContainsRune(s, ':')
}

// lookup returns the existing family for name after verifying the kind,
// or registers a new one built by mk.
func (r *Registry) lookup(name, help, kind string, mk func() *family) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byNm[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, not %s", name, f.kind, kind))
		}
		return f
	}
	f := mk()
	f.name, f.help, f.kind = name, help, kind
	r.byNm[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter registers (or returns) the counter named name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, "counter", func() *family { return &family{c: &Counter{}} })
	if f.c == nil {
		panic(fmt.Sprintf("obs: metric %q is a counter vec, not a counter", name))
	}
	return f.c
}

// CounterVec registers (or returns) the labeled counter family named name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	f := r.lookup(name, help, "counter", func() *family {
		return &family{cv: &CounterVec{labels: labels, kids: make(map[string]*Counter)}}
	})
	if f.cv == nil {
		panic(fmt.Sprintf("obs: metric %q is a plain counter, not a vec", name))
	}
	return f.cv
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time (queue depths, map sizes — values that already live somewhere).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.lookup(name, help, "gauge", func() *family { return &family{gf: fn} })
}

// Histogram registers (or returns) the histogram named name with the given
// ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, "histogram", func() *family { return &family{h: newHistogram(bounds)} })
	if f.h == nil {
		panic(fmt.Sprintf("obs: metric %q is a histogram vec, not a histogram", name))
	}
	return f.h
}

// HistogramVec registers (or returns) the labeled histogram family named
// name with the given bucket upper bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	f := r.lookup(name, help, "histogram", func() *family {
		return &family{hv: &HistogramVec{labels: labels, bounds: bounds, kids: make(map[string]*Histogram)}}
	})
	if f.hv == nil {
		panic(fmt.Sprintf("obs: metric %q is a plain histogram, not a vec", name))
	}
	return f.hv
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {name="value",...} for one vec child key.
func labelPairs(names []string, key string, extra string) string {
	values := strings.Split(key, labelSep)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// sortedKeys returns map keys in stable order for deterministic exposition.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := fmt.Sprintf(`le="%s"`, formatFloat(b))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, le), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

// mergeLabels merges an existing rendered label set ("{a=\"b\"}" or "")
// with one extra pair.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order with vec
// children sorted by label values.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		var err error
		switch {
		case f.c != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", f.name, f.c.Value())
		case f.gf != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.gf()))
		case f.h != nil:
			err = writeHistogram(w, f.name, "", f.h)
		case f.cv != nil:
			f.cv.mu.Lock()
			keys := sortedKeys(f.cv.kids)
			for _, k := range keys {
				if _, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelPairs(f.cv.labels, k, ""), f.cv.kids[k].Value()); err != nil {
					break
				}
			}
			f.cv.mu.Unlock()
		case f.hv != nil:
			f.hv.mu.Lock()
			keys := sortedKeys(f.hv.kids)
			for _, k := range keys {
				if err = writeHistogram(w, f.name, labelPairs(f.hv.labels, k, ""), f.hv.kids[k]); err != nil {
					break
				}
			}
			f.hv.mu.Unlock()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TextContentType is the Content-Type of the exposition format.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target (GET only).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", TextContentType)
		_ = r.WriteText(w)
	})
}
