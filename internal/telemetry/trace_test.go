package telemetry

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestSpanParentChildOrdering builds a small span tree, snapshots it, and
// checks that (a) every record survives a JSON round trip, (b) each child's
// parent comes earlier in the snapshot, and (c) parent linkage follows the
// context.
func TestSpanParentChildOrdering(t *testing.T) {
	tr := NewTracer(16)
	ctx := context.Background()

	ctx, root := tr.Start(ctx, "build")
	cctx, crawl := tr.Start(ctx, "crawl")
	_, fetch := tr.Start(cctx, "fetch_feed")
	fetch.SetAttr("attempts", 2)
	fetch.End()
	crawl.End()
	_, extract := tr.Start(ctx, "extract")
	extract.End()
	root.End()
	root.End() // idempotent: must not record twice

	var recs []SpanRecord
	for _, rec := range tr.Snapshot() {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var r SpanRecord
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("bad record %s: %v", b, err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 4 {
		t.Fatalf("exported %d spans, want 4", len(recs))
	}

	seen := map[uint64]SpanRecord{}
	for i, r := range recs {
		if r.Parent != 0 {
			if _, ok := seen[r.Parent]; !ok {
				t.Errorf("line %d: span %d (%s) precedes its parent %d", i, r.ID, r.Name, r.Parent)
			}
		}
		seen[r.ID] = r
	}

	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["build"].Parent != 0 {
		t.Errorf("root span has parent %d, want 0", byName["build"].Parent)
	}
	if byName["crawl"].Parent != byName["build"].ID {
		t.Errorf("crawl parent = %d, want build's id %d", byName["crawl"].Parent, byName["build"].ID)
	}
	if byName["fetch_feed"].Parent != byName["crawl"].ID {
		t.Errorf("fetch_feed parent = %d, want crawl's id %d", byName["fetch_feed"].Parent, byName["crawl"].ID)
	}
	if byName["extract"].Parent != byName["build"].ID {
		t.Errorf("extract parent = %d, want build's id %d", byName["extract"].Parent, byName["build"].ID)
	}
	if got := byName["fetch_feed"].Attrs["attempts"]; got != float64(2) {
		t.Errorf("fetch_feed attempts attr = %v, want 2", got)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		_, s := tr.Start(ctx, "op")
		s.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("buffer holds %d spans, want cap 3", len(spans))
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", tr.Dropped())
	}
	// The survivors are the newest spans, still in ID order.
	for i, want := range []uint64{3, 4, 5} {
		if spans[i].ID != want {
			t.Errorf("span %d id = %d, want %d", i, spans[i].ID, want)
		}
	}
}

func TestHubFromContextFallback(t *testing.T) {
	if got := HubFromContext(context.Background()); got != Default() {
		t.Error("no-hub context should resolve to the Default hub")
	}
	h := NewHub()
	ctx := WithHub(context.Background(), h)
	if got := HubFromContext(ctx); got != h {
		t.Error("WithHub context should resolve to its own hub")
	}
	// Package-level Start must use the context hub's tracer.
	_, s := Start(ctx, "scoped")
	s.End()
	if n := len(h.Tracer.Snapshot()); n != 1 {
		t.Errorf("hub tracer buffered %d spans, want 1", n)
	}
}

// TestSpanEndReturnsRecordedDuration pins the stopwatch contract: End
// returns exactly the duration it records, later calls return the same
// reading, and a span on a nil tracer still measures without recording.
func TestSpanEndReturnsRecordedDuration(t *testing.T) {
	tr := NewTracer(4)
	_, s := tr.Start(context.Background(), "op")
	d := s.End()
	if again := s.End(); again != d {
		t.Errorf("second End = %v, want the first reading %v", again, d)
	}
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].DurationNS != int64(d) {
		t.Fatalf("recorded %+v, want one span of %d ns", recs, int64(d))
	}

	var none *Tracer
	ctx := context.Background()
	got, s := none.Start(ctx, "untraced")
	if got != ctx {
		t.Error("nil tracer Start must return ctx unchanged")
	}
	s.SetAttr("k", "v")
	time.Sleep(time.Millisecond)
	if d := s.End(); d <= 0 {
		t.Errorf("untraced span measured %v, want > 0", d)
	}
	var nilSpan *Span
	if d := nilSpan.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
}
