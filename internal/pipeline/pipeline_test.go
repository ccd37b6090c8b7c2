package pipeline

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestMetricsAccumulate(t *testing.T) {
	var m Metrics
	m.Observe(StageExtract, 10*time.Millisecond, 100)
	m.Observe(StageExtract, 5*time.Millisecond, 50)
	m.Observe(StageCrawl, time.Millisecond, 7)

	stats := m.Snapshot()
	if len(stats) != 2 {
		t.Fatalf("stages = %d, want 2", len(stats))
	}
	// Pipeline order: crawl before extract.
	if stats[0].Stage != StageCrawl || stats[1].Stage != StageExtract {
		t.Errorf("order = %v, %v", stats[0].Stage, stats[1].Stage)
	}
	if stats[1].Items != 150 || stats[1].Duration != 15*time.Millisecond {
		t.Errorf("extract stat = %+v", stats[1])
	}
}

func TestMetricsConcurrent(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Observe(StageSearch, time.Microsecond, 1)
			}
		}()
	}
	wg.Wait()
	stats := m.Snapshot()
	if len(stats) != 1 || stats[0].Items != 3200 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestNilMetricsAndProgress(t *testing.T) {
	var m *Metrics
	m.Observe(StageCrawl, time.Second, 1) // must not panic
	if s := m.Snapshot(); s != nil {
		t.Errorf("nil snapshot = %v", s)
	}
	n := NewNotifier(StageExtract, 10, nil)
	n.Done(3) // must not panic
	var nilN *Notifier
	nilN.Done(1) // must not panic
}

// TestRender pins the status line's throttle: a stage repaints only when it
// starts or its whole percentage changes, and its last count ends the line.
func TestRender(t *testing.T) {
	var buf bytes.Buffer
	p := Render(&buf)
	for done := 0; done <= 300; done++ {
		p(StageExtract, done, 300)
	}
	p(StageSynthesize, 0, 0)
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	if n := bytes.Count(lines[0], []byte("\r")); n != 101 {
		t.Errorf("extract repainted %d times, want 101 (0%%..100%%)", n)
	}
	if !bytes.HasSuffix(lines[0], []byte("\rextract    300/300 (100%)   ")) {
		t.Errorf("extract line ends %q", lines[0][max(0, len(lines[0])-40):])
	}
	if want := "\rsynthesize 0/0 (100%)   "; string(lines[1]) != want {
		t.Errorf("empty stage line = %q, want %q", lines[1], want)
	}
}

func TestNotifierCounts(t *testing.T) {
	type call struct{ done, total int }
	var mu sync.Mutex
	var calls []call
	n := NewNotifier(StageExtract, 4, func(s Stage, done, total int) {
		if s != StageExtract {
			t.Errorf("stage = %v", s)
		}
		mu.Lock()
		calls = append(calls, call{done, total})
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Done(1)
		}()
	}
	wg.Wait()
	if len(calls) != 5 { // initial 0/4 plus four increments
		t.Fatalf("calls = %d, want 5", len(calls))
	}
	last := calls[len(calls)-1]
	// Counts are monotonic under the notifier's lock, so the final call
	// must report completion.
	if last.done != 4 || last.total != 4 {
		t.Errorf("final call = %+v", last)
	}
}
