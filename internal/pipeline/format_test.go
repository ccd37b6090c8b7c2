package pipeline

import (
	"strings"
	"testing"
	"time"

	"patchdb/internal/telemetry"
)

// TestFormatStatsAlignment checks that stage names longer than the default
// column width still produce aligned columns: every row's items column and
// duration column start at the same offset.
func TestFormatStatsAlignment(t *testing.T) {
	stats := []StageStat{
		{Stage: StageCrawl, Duration: 120 * time.Millisecond, Items: 40},
		{Stage: "mine-patterns-and-verify", Duration: 2 * time.Second, Items: 123456789},
		{Stage: StageSynthesize, Duration: 5 * time.Millisecond, Items: 3},
	}
	out := FormatStats(stats)
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want 3:\n%s", len(lines), out)
	}
	itemsCol := -1
	for i, line := range lines {
		idx := strings.Index(line, " items")
		if idx < 0 {
			t.Fatalf("line %d missing items column: %q", i, line)
		}
		if itemsCol == -1 {
			itemsCol = idx
		} else if idx != itemsCol {
			t.Errorf("line %d items column at %d, want %d (misaligned):\n%s", i, idx, itemsCol, out)
		}
	}
	// The long stage name must appear unclipped.
	if !strings.Contains(out, "mine-patterns-and-verify") {
		t.Errorf("long stage name clipped:\n%s", out)
	}
}

// TestFormatStatsShortNamesKeepHistoricalWidth pins the floor widths so short
// stage tables render exactly as before the width fix.
func TestFormatStatsShortNamesKeepHistoricalWidth(t *testing.T) {
	out := FormatStats([]StageStat{{Stage: StageCrawl, Duration: time.Second, Items: 10}})
	want := "crawl              10 items          1s  (10 items/s)"
	if out != want {
		t.Errorf("rendered %q, want %q", out, want)
	}
}

// TestMetricsSharedRegistry checks the publishing contract: Observe lands in
// the registry's labeled counters, so a /metrics scrape and Snapshot report
// the same numbers for a registry with one writer.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	m.Observe(StageSearch, 30*time.Millisecond, 12)
	m.Observe(StageSearch, 20*time.Millisecond, 8)

	label := telemetry.L("stage", string(StageSearch))
	if got := reg.Counter(MetricStageItems, label).Value(); got != 20 {
		t.Errorf("registry items counter = %v, want 20", got)
	}
	wantNS := float64((50 * time.Millisecond).Nanoseconds())
	if got := reg.Counter(MetricStageDurationNS, label).Value(); got != wantNS {
		t.Errorf("registry duration counter = %v ns, want %v", got, wantNS)
	}

	stats := m.Snapshot()
	if len(stats) != 1 || stats[0].Items != 20 || stats[0].Duration != 50*time.Millisecond {
		t.Errorf("snapshot = %+v", stats)
	}

	// Unknown stages written by other users of the same registry sort after
	// the known pipeline stages.
	m.Observe("zz-custom", time.Millisecond, 1)
	m.Observe("aa-custom", time.Millisecond, 1)
	stats = m.Snapshot()
	if len(stats) != 3 || stats[0].Stage != StageSearch ||
		stats[1].Stage != "aa-custom" || stats[2].Stage != "zz-custom" {
		t.Errorf("ordering with custom stages = %+v", stats)
	}
}

// TestMetricsSnapshotIsLocal checks that two Metrics publishing into one
// registry each snapshot only their own observations, while the registry's
// stage counters hold the sum.
func TestMetricsSnapshotIsLocal(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, b := NewMetrics(reg), NewMetrics(reg)
	a.Observe(StageCrawl, 3*time.Millisecond, 20)
	b.Observe(StageCrawl, 5*time.Millisecond, 20)
	for name, m := range map[string]*Metrics{"a": a, "b": b} {
		if st := m.Snapshot(); len(st) != 1 || st[0].Items != 20 {
			t.Errorf("%s snapshot = %+v, want 20 crawl items", name, st)
		}
	}
	label := telemetry.L("stage", string(StageCrawl))
	if got := reg.Counter(MetricStageItems, label).Value(); got != 40 {
		t.Errorf("registry items counter = %v, want 40", got)
	}
}
