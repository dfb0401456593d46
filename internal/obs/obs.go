// Package obs is the fleet-wide observability layer: a
// zero-dependency metrics registry (atomic counters, gauges and
// fixed-bucket histograms) rendered in the Prometheus text exposition
// format, a strict parser for that format (the e2e suite's scrape
// assertions), an HTTP middleware that instruments every route with
// request counters and latency histograms, and structured logging
// (log/slog) that carries a request ID across process boundaries via
// the X-Adnet-Request-Id header.
//
// Design constraints, in order:
//
//   - Zero dependencies. Everything is stdlib; nothing here may pull a
//     module into go.mod.
//   - Zero allocations on instrumented hot paths. Counter.Add,
//     Gauge.Set and Histogram.Observe are pure atomic operations; the
//     engine's round loop is never touched at all (run-level metrics
//     are folded in once per run, after the loop).
//   - Label discipline. Label cardinality is bounded by construction:
//     routes come from the finite mux pattern set, states from the
//     job-lifecycle enum, worker IDs from the fleet registry. Nothing
//     user-controlled (spec contents, request IDs) ever becomes a
//     label value.
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

// Metric type names as rendered in the exposition's # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families and renders them as Prometheus text
// exposition. All methods are safe for concurrent use. Registering
// the same (name, type, label names) twice returns the existing
// family; re-registering a name with a different shape panics — that
// is a wiring bug, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric name: help, type, label names and its series.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu     sync.Mutex
	series map[string]*series // key: label values joined by \xff
}

// series is one label-value combination of a family. Exactly one of
// the value fields is set, matching the family type.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	fn          func() float64
	hist        *Histogram
}

func (r *Registry) family(name, help, typ string, labels []string) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabel(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		series: make(map[string]*series)}
	r.families[name] = f
	return f
}

// getOrAdd returns the series for the label values, creating it with
// make on first use.
func (f *family) getOrAdd(values []string, make func() *series) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	s.labelValues = append([]string(nil), values...)
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the label values, creating it on first
// use. The result may be cached by callers on hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	s := v.f.getOrAdd(values, func() *series { return &series{counter: &Counter{}} })
	return s.counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	s := v.f.getOrAdd(values, func() *series { return &series{gauge: &Gauge{}} })
	return s.gauge
}

// HistogramVec is a histogram family with labels; every series shares
// the family's buckets.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// With returns the histogram for the label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	s := v.f.getOrAdd(values, func() *series { return &series{hist: newHistogram(v.buckets)} })
	return s.hist
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labels)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labels)}
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the bridge for values another subsystem already tracks
// (queue depth, registry counts). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil)
	f.getOrAdd(nil, func() *series { return &series{fn: fn} })
}

// CounterFunc registers a counter whose value is computed by fn at
// scrape time. fn must be monotonically non-decreasing and safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeCounter, nil)
	f.getOrAdd(nil, func() *series { return &series{fn: fn} })
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	mustAscending(name, buckets)
	f := r.family(name, help, typeHistogram, labels)
	return &HistogramVec{f: f, buckets: buckets}
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families and series in sorted
// order so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	families := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		families = append(families, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)

	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ss := make([]*series, 0, len(keys))
	for _, k := range keys {
		ss = append(ss, f.series[k])
	}
	f.mu.Unlock()

	for _, s := range ss {
		labels := renderLabels(f.labels, s.labelValues, "")
		switch {
		case s.counter != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(float64(s.counter.Value())))
		case s.gauge != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(float64(s.gauge.Value())))
		case s.fn != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(s.fn()))
		case s.hist != nil:
			s.hist.write(b, f.name, f.labels, s.labelValues)
		}
	}
}

// renderLabels renders {a="x",b="y"} (empty string for no labels).
// extra, when non-empty, is appended verbatim as one more pair.
func renderLabels(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
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

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a sample value: integers without an exponent,
// everything else in Go's shortest-exact form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves GET /metrics over the registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func mustValidName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func mustValidLabel(name string) {
	if !validLabelName(name) {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

func mustAscending(name string, buckets []float64) {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending: %v", name, buckets))
		}
	}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
