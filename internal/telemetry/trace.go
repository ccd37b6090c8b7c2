package telemetry

import (
	"context"
	"sort"
	"sync"
	"time"
)

// DefaultTraceCapacity bounds the in-memory span buffer of a NewHub tracer.
const DefaultTraceCapacity = 4096

// SpanRecord is one finished span as stored in the trace buffer and
// exported in the RunReport. IDs are assigned at Start from a per-tracer monotonic
// counter, so a parent's ID is always smaller than its children's.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Trace is the correlation ID the span belongs to (a request's
	// X-Request-ID in the serving layer), inherited from the parent span or
	// from WithTraceID on the starting context; "" for uncorrelated spans.
	Trace string    `json:"trace,omitempty"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// DurationNS is the span's wall-clock duration in nanoseconds.
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Tracer collects finished spans into a bounded ring buffer: once full, the
// oldest spans are dropped (and counted). A nil *Tracer ignores everything.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	nextID  uint64
	spans   []SpanRecord // ring storage
	head    int          // index of the oldest record when len(spans) == cap
	dropped uint64
}

// NewTracer creates a tracer buffering at most capacity finished spans
// (capacity <= 0 means DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{cap: capacity}
}

// Span is one in-flight traced operation and the program's stopwatch: End
// returns the duration it records, and every duration the program reports
// is the End reading of the span that traces the same interval. A span
// started on a nil tracer still measures time but records nothing. A nil
// *Span ignores SetAttr and End.
type Span struct {
	tracer *Tracer
	id     uint64
	parent uint64
	trace  string
	name   string
	start  time.Time

	mu      sync.Mutex
	attrs   map[string]any
	ended   bool
	elapsed time.Duration
}

type spanKey struct{}
type traceIDKey struct{}

// WithTraceID returns a context carrying a correlation ID. Spans started
// under the context (and their descendants) record it, and the hub logger
// attaches it to every record, so one request's spans, logs, and histogram
// exemplars all share the ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFromContext returns the correlation ID carried by ctx: the current
// span's trace if one is in flight, else the value set by WithTraceID, else
// "".
func TraceIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if s := SpanFromContext(ctx); s != nil && s.trace != "" {
		return s.trace
	}
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// Start begins a span under t, linking it to the span already in ctx (if
// any) as its parent, and returns a context carrying the new span. The span
// inherits its correlation ID from the parent span, or from WithTraceID. On
// a nil tracer the span only measures time, and ctx is returned unchanged.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, &Span{name: name, start: time.Now()}
	}
	var parent uint64
	var trace string
	if p := SpanFromContext(ctx); p != nil {
		parent = p.id
		trace = p.trace
	}
	if trace == "" {
		trace = TraceIDFromContext(ctx)
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &Span{tracer: t, id: id, parent: parent, trace: trace, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// SetAttr attaches one attribute to the span. Values should be
// JSON-encodable (strings, numbers, bools). A span on a nil tracer keeps
// none, since nothing will record them.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
}

// End finishes the span, records it in the tracer's buffer, and returns
// its duration. End is idempotent: only the first call records, and every
// call returns the duration the first one measured.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return s.elapsed
	}
	s.ended = true
	s.elapsed = time.Since(s.start)
	attrs := s.attrs
	s.mu.Unlock()
	s.tracer.record(SpanRecord{
		ID:         s.id,
		Parent:     s.parent,
		Trace:      s.trace,
		Name:       s.name,
		Start:      s.start,
		DurationNS: int64(s.elapsed),
		Attrs:      attrs,
	})
	return s.elapsed
}

// record appends one finished span, evicting the oldest when full. A nil
// tracer records nothing.
func (t *Tracer) record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, rec)
		return
	}
	t.spans[t.head] = rec
	t.head = (t.head + 1) % t.cap
	t.dropped++
}

// Dropped counts spans evicted from a full buffer.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot copies the buffered spans sorted by ID. Since IDs are assigned
// at Start, a parent always sorts before every span it parents.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// hubKey carries a *Hub in a context.
type hubKey struct{}

// WithHub returns a context carrying h; Start and HubFromContext resolve
// against it instead of the process-wide Default hub.
func WithHub(ctx context.Context, h *Hub) context.Context {
	return context.WithValue(ctx, hubKey{}, h)
}

// HubFromContext returns the hub carried by ctx, or the process-wide
// Default hub.
func HubFromContext(ctx context.Context) *Hub {
	if ctx != nil {
		if h, ok := ctx.Value(hubKey{}).(*Hub); ok && h != nil {
			return h
		}
	}
	return defaultHub
}

// Start begins a span on the tracer of the hub carried by ctx (or the
// Default hub), parenting it under the context's current span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return HubFromContext(ctx).Tracer.Start(ctx, name)
}
