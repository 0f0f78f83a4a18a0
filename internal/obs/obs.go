// Package obs is a zero-dependency observability toolkit: hand-rolled
// Prometheus-style instruments (counter, gauge, histogram with fixed
// buckets), a text-format exposition writer, a registry of collect
// functions, and a bounded ring of per-round trace spans. It exists so
// the module can serve scrape-compatible /metrics without taking a
// client_golang dependency; everything here is stdlib-only.
//
// The design is collect-at-scrape: instruments hold live state, and a
// Registry's collect functions walk that state when a scrape arrives,
// rendering one consistent exposition. Counter and gauge families that
// already exist as SDK snapshot structs are emitted straight from the
// snapshot, so the Prometheus and JSON endpoints can never disagree.
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
	"time"
)

// Label is one name="value" pair on a metric series.
type Label struct {
	Name, Value string
}

// Labels is an ordered label set. Order is preserved in the exposition
// (Prometheus does not require sorting, only consistency).
type Labels []Label

// L builds a label set from name/value pairs: L("session", id, "role",
// "server"). It panics on an odd count — a static-usage bug.
func L(pairs ...string) Labels {
	if len(pairs)%2 != 0 {
		panic("obs: L requires name/value pairs")
	}
	ls := make(Labels, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return ls
}

// With returns a copy of ls with extra pairs appended.
func (ls Labels) With(pairs ...string) Labels {
	out := make(Labels, len(ls), len(ls)+len(pairs)/2)
	copy(out, ls)
	return append(out, L(pairs...)...)
}

// Counter is a monotonically increasing count. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets are the fixed histogram bounds (seconds) used for the
// round-phase latency families: 500µs to 30s, roughly logarithmic.
// Pad and combine land in the sub-millisecond buckets on the PR 5 data
// plane; submission windows span the milliseconds-to-seconds range.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram counts observations into fixed, ascending buckets. A final
// +Inf bucket is implicit. All methods are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    Gauge           // observed-value sum (CAS float add)
}

// NewHistogram builds a histogram over the given upper bounds, which
// must be finite and strictly ascending. An observation v lands in the
// first bucket with v <= bound, Prometheus `le` semantics.
func NewHistogram(bounds ...float64) *Histogram {
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("obs: histogram bounds must be finite (+Inf is implicit)")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le semantics
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistSnapshot is a point-in-time copy of a histogram's state.
type HistSnapshot struct {
	// Bounds are the finite upper bounds; Counts has one extra entry for
	// the +Inf overflow bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []uint64
	// Sum is the sum of observed values; Count the total observations
	// (always the sum of Counts, so the exposition stays internally
	// consistent even when a snapshot races an Observe).
	Sum   float64
	Count uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Value()
	return s
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// escapeLabel escapes a label value: backslash, double-quote, newline.
func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}

// formatFloat renders a sample value or bucket bound the way Prometheus
// expects (shortest round-trip representation, +Inf spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Writer renders Prometheus text exposition format (version 0.0.4).
// Declare each family once with Family, then emit its series with
// Sample or Hist; the first write error sticks and is returned by Err.
type Writer struct {
	w      io.Writer
	err    error
	family string
}

// NewWriter wraps w in an exposition writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (e *Writer) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Family begins a metric family: HELP and TYPE headers. typ is
// "counter", "gauge", or "histogram".
func (e *Writer) Family(name, typ, help string) {
	e.family = name
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// labelString renders {a="b",...}, or "" for an empty set.
func labelString(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Sample emits one series of the current family.
func (e *Writer) Sample(labels Labels, v float64) {
	e.printf("%s%s %s\n", e.family, labelString(labels), formatFloat(v))
}

// Hist emits one histogram series of the current family: cumulative
// _bucket lines per bound plus +Inf, then _sum and _count.
func (e *Writer) Hist(labels Labels, s HistSnapshot) {
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		e.printf("%s_bucket%s %d\n", e.family, labelString(labels.With("le", formatFloat(b))), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	e.printf("%s_bucket%s %d\n", e.family, labelString(labels.With("le", "+Inf")), cum)
	e.printf("%s_sum%s %s\n", e.family, labelString(labels), formatFloat(s.Sum))
	e.printf("%s_count%s %d\n", e.family, labelString(labels), s.Count)
}

// Err returns the first write error, if any.
func (e *Writer) Err() error { return e.err }

// Registry holds collect functions that render metric families at
// scrape time. Collectors run in registration order, so families stay
// grouped and stably ordered across scrapes.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Writer)
	scrapes    Counter
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Collect registers fn to be called on every scrape. fn must declare
// any family it emits (Writer.Family) before emitting its series, and
// must not emit a family another collector owns.
func (r *Registry) Collect(fn func(*Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// WriteText renders every registered family as text exposition.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]func(*Writer){}, r.collectors...)
	r.mu.Unlock()
	r.scrapes.Inc()
	e := NewWriter(w)
	for _, fn := range collectors {
		fn(e)
	}
	e.Family("dissent_metrics_scrapes_total", "counter", "Scrapes served by this registry.")
	e.Sample(nil, float64(r.scrapes.Value()))
	return e.Err()
}

// ServeHTTP serves the exposition with the Prometheus text content
// type, making the registry mountable as an http.Handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := r.WriteText(w); err != nil {
		// Headers are gone; nothing useful left to do but note it.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
