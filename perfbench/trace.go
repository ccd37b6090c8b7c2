package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // op number; spans of one op share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Alloc is the bytes allocated during the span, recorded only for calls
	// made from a single goroutine (alloc deltas of concurrent calls mix).
	Alloc uint64 `json:"alloc_bytes,omitempty"`
	// Derived marks a span whose duration the program reported in its own
	// return value (e.g. BuildReport.Stages) rather than one timed here.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setOp tags the spans that follow with op number n.
func (t *tracer) setOp(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = n
	t.mu.Unlock()
}

// begin opens a span under parent in the current op and returns its ID
// (0 when t is nil).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	op := t.op
	t.mu.Unlock()
	return t.beginOp(name, parent, op)
}

// beginOp opens a span of op under parent, for callers that run several
// ops at once.
func (t *tracer) beginOp(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span named name under parent and records the bytes
// fn allocated. fn must not run concurrently with other traced calls.
func (t *tracer) call(name string, parent int, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin(name, parent)
	err := fn(id)
	t.end(id)
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	t.spans[id-1].Alloc = after.TotalAlloc - before.TotalAlloc
	t.mu.Unlock()
	return err
}

// derived records a child of parent whose duration d the program reported
// itself, and returns its ID. It is laid at the parent's start: only its
// length enters self times.
func (t *tracer) derived(name string, parent int, d time.Duration) int {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: p.Op, Name: name,
		Start: p.Start, End: p.Start + int64(d), Derived: true,
	})
	return len(t.spans)
}

// layerTotals sums, per span name, self time (duration minus the children's
// durations) and allocated bytes over the spans of ops in keep.
type layerTotals struct {
	self  map[string]time.Duration
	alloc map[string]uint64
	count map[string]int
}

func (t *tracer) totals(keep func(op int) bool) layerTotals {
	lt := layerTotals{self: map[string]time.Duration{}, alloc: map[string]uint64{}, count: map[string]int{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		if !keep(s.Op) {
			continue
		}
		self := s.dur() - children[s.ID]
		if self < 0 {
			self = 0
		}
		lt.self[s.Name] += self
		lt.alloc[s.Name] += s.Alloc
		lt.count[s.Name]++
	}
	return lt
}

// write stores every span as JSON under dir (created if missing).
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encode spans: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
