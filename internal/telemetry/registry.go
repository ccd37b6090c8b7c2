// Package telemetry is the process-wide, dependency-free observability
// subsystem: a metrics registry (counters, gauges, fixed-bucket histograms)
// that is safe for concurrent use and deterministic to snapshot, lightweight
// span tracing with a bounded in-memory buffer (exported in the RunReport
// and as a Chrome trace), a Prometheus-text-format /metrics handler with
// /debug/pprof wiring behind one Serve call, and the end-of-run RunReport
// artifact that merges stage timings with subsystem counters.
//
// Everything is nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, *Tracer, or *Span are no-ops, so instrumentation points never
// need to guard against an absent sink.
package telemetry

import (
	"fmt"
	"log/slog"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies a metric.
type Kind string

// The metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing float64 value (Prometheus counters
// are floats; integral adds stay exact below 2^53). The zero value is ready
// to use; a nil *Counter ignores all operations.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v. Negative deltas are ignored — counters
// only go up.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 value that can go up and down. The zero value is ready
// to use; a nil *Gauge ignores all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (negative deltas allowed).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Bucket semantics
// follow Prometheus: counts[i] counts observations v <= bounds[i] (after
// subtracting lower buckets); the final implicit +Inf bucket catches the
// rest. The zero value is NOT usable — histograms come from
// Registry.Histogram, which fixes the bounds. A nil *Histogram ignores all
// observations.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	count  uint64
	// exemplars keeps the most recent correlated observation per bucket
	// (zero-value entries mean "no exemplar yet"); lazily allocated on the
	// first ObserveExemplar so uncorrelated histograms pay nothing.
	exemplars []Exemplar
}

// Exemplar links one bucket of a histogram to the trace that produced its
// most recent observation, so a latency spike on a dashboard resolves to a
// concrete request.
type Exemplar struct {
	Trace string  `json:"trace"`
	Value float64 `json:"value"`
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.ObserveExemplar(v, "")
}

// ObserveExemplar records one value and, when trace is non-empty, remembers
// (trace, v) as the bucket's exemplar — the most recent correlated
// observation wins.
func (h *Histogram) ObserveExemplar(v float64, trace string) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the le-bucket
	h.counts[i]++
	h.sum += v
	h.count++
	if trace == "" {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.counts))
	}
	h.exemplars[i] = Exemplar{Trace: trace, Value: v}
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
	if h.exemplars != nil {
		s.Exemplars = append([]Exemplar(nil), h.exemplars...)
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket bounds, strictly increasing.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the +Inf overflow
	// bucket. Counts are per-bucket, not cumulative.
	Counts []uint64 `json:"counts"`
	Sum    float64  `json:"sum"`
	Count  uint64   `json:"count"`
	// Exemplars, when present, has len(Counts) entries aligned with Counts;
	// an entry with an empty Trace means that bucket has no exemplar.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// DefDurationBuckets is the default latency histogram layout (seconds):
// 1ms to ~30s, roughly exponential.
var DefDurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// MetricPoint is one metric's state in a Registry snapshot.
type MetricPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   Kind    `json:"kind"`
	// Help is the family's registered help text ("" if none was set).
	Help string `json:"help,omitempty"`
	// Value always serializes (a zero counter is real state, not absence).
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// entry is one registered metric instance (a family name plus one label
// set).
type entry struct {
	name    string
	labels  []Label
	kind    Kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds metrics keyed by (name, label set). Metric accessors are
// get-or-create; all methods are safe for concurrent use, and Snapshot is
// deterministic (sorted by name, then label set). A nil *Registry returns
// nil metrics, whose operations are no-ops — optional instrumentation costs
// one nil check.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*entry
	help    map[string]string // family name -> # HELP text
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// metricID renders the canonical identity of a metric instance: the family
// name plus its label set sorted by key.
func metricID(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String(), ls
}

// lookup returns the entry for (name, labels), creating it with mk if
// absent. Registering the same identity under two different kinds is a
// programming error and panics (like expvar re-registration).
func (r *Registry) lookup(name string, labels []Label, kind Kind, mk func(e *entry)) *entry {
	id, ls := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.metrics == nil {
		r.metrics = make(map[string]*entry)
	}
	e, ok := r.metrics[id]
	if !ok {
		e = &entry{name: name, labels: ls, kind: kind}
		mk(e)
		r.metrics[id] = e
		return e
	}
	if e.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s already registered as %s, requested %s", id, e.kind, kind))
	}
	return e
}

// SetHelp registers the # HELP text for a metric family; the exposition
// formats emit it ahead of the family's # TYPE line.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.help == nil {
		r.help = make(map[string]string)
	}
	r.help[name] = help
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, KindCounter, func(e *entry) { e.counter = &Counter{} }).counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, KindGauge, func(e *entry) { e.gauge = &Gauge{} }).gauge
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given inclusive upper bucket bounds (which must be strictly
// increasing; nil means DefDurationBuckets). Bounds are fixed at creation —
// later calls for the same instance ignore the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, KindHistogram, func(e *entry) {
		if bounds == nil {
			bounds = DefDurationBuckets
		}
		bs := append([]float64(nil), bounds...)
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %s bounds not strictly increasing at %d", name, i))
			}
		}
		e.hist = &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
	}).hist
}

// Snapshot copies every metric's current state, sorted by metric identity
// (family name, then label set) so the output is deterministic.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ids := make([]string, 0, len(r.metrics))
	for id := range r.metrics {
		ids = append(ids, id)
	}
	entries := make([]*entry, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		entries = append(entries, r.metrics[id])
	}
	help := make(map[string]string, len(r.help))
	for name, h := range r.help {
		help[name] = h
	}
	r.mu.Unlock()

	out := make([]MetricPoint, 0, len(entries))
	for _, e := range entries {
		p := MetricPoint{Name: e.name, Labels: e.labels, Kind: e.kind, Help: help[e.name]}
		switch e.kind {
		case KindCounter:
			p.Value = e.counter.Value()
		case KindGauge:
			p.Value = e.gauge.Value()
		case KindHistogram:
			s := e.hist.Snapshot()
			p.Histogram = &s
		}
		out = append(out, p)
	}
	return out
}

// Hub bundles the telemetry sinks a run instruments into: the metrics
// registry, the span tracer, and the structured log ring behind the Logger
// method.
type Hub struct {
	Registry *Registry
	Tracer   *Tracer
	// Logs keeps the most recent log records for /debug/logs (nil on a hub
	// built without logging; the Logger method then discards).
	Logs *LogBuffer

	logger *slog.Logger
}

// NewHub creates a hub with a fresh registry, a default-capacity tracer, and
// a JSON logger that writes to stderr and mirrors into a default-capacity
// log ring.
func NewHub() *Hub {
	logs := NewLogBuffer(DefaultLogCapacity)
	return &Hub{
		Registry: NewRegistry(),
		Tracer:   NewTracer(DefaultTraceCapacity),
		Logs:     logs,
		logger:   slog.New(NewLogHandler(LogHandlerOptions{Writer: os.Stderr, Buffer: logs})),
	}
}

// defaultHub is the process-wide hub used when a context carries none.
var defaultHub = NewHub()

// Default returns the process-wide hub.
func Default() *Hub { return defaultHub }
