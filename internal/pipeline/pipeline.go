// Package pipeline instruments the dataset-construction pipeline: it names
// the stages of a Build, accumulates per-stage wall-clock timings and item
// counters, and defines the progress-callback contract that lets CLIs render
// a live view of a run. Everything here is safe for concurrent use. The
// builder's worker pools report progress through a Notifier; Metrics is
// observed only from the goroutine that runs a Build (and from
// patchdb-stats' main), once per span that times a stage.
//
// Metrics reads no clock: each stage duration it accumulates is the End
// reading of the telemetry span that traces the stage, and each observation
// is also published to a telemetry.Registry's stage counters for /metrics.
package pipeline

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"patchdb/internal/telemetry"
)

// Stage identifies one phase of the construction pipeline.
type Stage string

// The stages of a Build, in execution order.
const (
	// StageGenerate covers generating the simulated world: the corpus of
	// repositories and labeled commits the build crawls and searches.
	StageGenerate Stage = "generate"
	// StageCrawl covers the NVD feed fetch and patch downloads.
	StageCrawl Stage = "crawl"
	// StageExtract covers per-commit feature extraction over the wild pools
	// and the crawled seed (the dominant cost at realistic pool sizes).
	StageExtract Stage = "extract"
	// StageSearch covers the nearest-link searches inside augmentation
	// rounds.
	StageSearch Stage = "search"
	// StageAugment covers the augmentation rounds (search + verification).
	StageAugment Stage = "augment"
	// StageSynthesize covers source-level oversampling.
	StageSynthesize Stage = "synthesize"
	// StageCheckpoint covers journal writes at stage boundaries when the
	// build runs with a checkpoint directory.
	StageCheckpoint Stage = "checkpoint"
)

// The registry metric families Metrics writes stage accounting into. The
// stage name rides in a "stage" label. Durations are stored in integral
// nanoseconds so accumulated values survive the float64 counter exactly.
const (
	MetricStageItems      = "patchdb_stage_items_total"
	MetricStageDurationNS = "patchdb_stage_duration_nanoseconds_total"
)

// stageOrder fixes the rendering order of known stages; unknown stages sort
// after them, alphabetically.
var stageOrder = []Stage{StageGenerate, StageCrawl, StageExtract, StageSearch,
	StageAugment, StageSynthesize, StageCheckpoint}

// stageRank is a stage's position in stageOrder, or len(stageOrder) for an
// unknown stage.
func stageRank(s Stage) int {
	if i := slices.Index(stageOrder, s); i >= 0 {
		return i
	}
	return len(stageOrder)
}

// Progress observes pipeline advancement: done items out of total for a
// stage. Callbacks are invoked synchronously from pipeline goroutines, so
// they must be cheap and safe for concurrent use. A nil Progress is valid
// everywhere one is accepted.
type Progress func(stage Stage, done, total int)

// Render returns a Progress that repaints one status line on w per stage
// transition or whole-percent change, and ends the line when a stage
// completes. It throttles to percent granularity because the builder
// reports per item and the extract stage can cover hundreds of thousands of
// commits.
func Render(w io.Writer) Progress {
	var mu sync.Mutex
	lastPct := map[Stage]int{}
	return func(stage Stage, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		pct := 100
		if total > 0 {
			pct = 100 * done / total
		}
		if p, ok := lastPct[stage]; ok && p == pct && done != total {
			return
		}
		lastPct[stage] = pct
		fmt.Fprintf(w, "\r%-10s %d/%d (%d%%)   ", stage, done, total, pct)
		if done >= total {
			fmt.Fprintln(w)
		}
	}
}

// Notifier wraps a possibly-nil Progress with a monotonically increasing
// done counter for one stage, so concurrent workers can report completion
// without coordinating indices.
type Notifier struct {
	stage    Stage
	total    int
	progress Progress

	mu   sync.Mutex
	done int
}

// NewNotifier creates a notifier for one stage of total items. p may be nil.
func NewNotifier(stage Stage, total int, p Progress) *Notifier {
	n := &Notifier{stage: stage, total: total, progress: p}
	if p != nil {
		p(stage, 0, total)
	}
	return n
}

// Done records n more completed items and forwards the new count. The
// callback runs under the notifier's lock, so counts reach it in order and
// the last call reports the final count; it must not call Done itself.
func (n *Notifier) Done(delta int) {
	if n == nil || n.progress == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.done += delta
	n.progress(n.stage, n.done, n.total)
}

// StageStat is one stage's accumulated accounting.
type StageStat struct {
	Stage Stage
	// Duration is total wall-clock time attributed to the stage. Stages
	// timed from a single goroutine report elapsed time; per-item
	// attribution from worker pools would sum CPU-parallel time instead,
	// so the builder times stages around the pool, not inside it.
	Duration time.Duration
	// Items is the number of units processed (commits, patches, rounds...).
	Items int
}

// Metrics accumulates per-stage timings and item counts locally and
// publishes every observation into a telemetry.Registry's stage counters
// (MetricStageItems, MetricStageDurationNS). Snapshot reads the local
// accumulation only, so several runs sharing one registry each report their
// own stages while /metrics shows their sum. The zero value accumulates
// without publishing. A nil *Metrics ignores all observations.
type Metrics struct {
	reg *telemetry.Registry

	mu     sync.Mutex
	stages []StageStat // first-observation order
}

// NewMetrics creates a Metrics publishing into reg (nil reg publishes
// nowhere).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{reg: reg}
}

// Observe adds elapsed time and an item count to a stage.
func (m *Metrics) Observe(stage Stage, d time.Duration, items int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	i := slices.IndexFunc(m.stages, func(st StageStat) bool { return st.Stage == stage })
	if i < 0 {
		i = len(m.stages)
		m.stages = append(m.stages, StageStat{Stage: stage})
	}
	m.stages[i].Duration += d
	m.stages[i].Items += items
	m.mu.Unlock()
	label := telemetry.L("stage", string(stage))
	m.reg.Counter(MetricStageItems, label).Add(float64(items))
	m.reg.Counter(MetricStageDurationNS, label).Add(float64(d.Nanoseconds()))
}

// Snapshot returns the accumulated stats in pipeline order.
func (m *Metrics) Snapshot() []StageStat {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := slices.Clone(m.stages)
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b StageStat) int {
		return cmp.Or(cmp.Compare(stageRank(a.Stage), stageRank(b.Stage)), cmp.Compare(a.Stage, b.Stage))
	})
	return out
}

// StageReports converts stage stats into a RunReport's stage entries.
func StageReports(stats []StageStat) []telemetry.StageReport {
	out := make([]telemetry.StageReport, len(stats))
	for i, st := range stats {
		out[i] = telemetry.StageReport{Stage: string(st.Stage), DurationNS: st.Duration.Nanoseconds(), Items: st.Items}
	}
	return out
}

// FormatStats renders stage stats as an aligned table, one stage per line.
// Column widths are computed from the data (with floors matching the
// historical layout), so stage names longer than the default width no
// longer break the alignment.
func FormatStats(stats []StageStat) string {
	if len(stats) == 0 {
		return "(no stage metrics)"
	}
	nameW, itemsW, durW := 12, 8, 10
	type row struct {
		name, items, dur, rate string
	}
	rows := make([]row, 0, len(stats))
	for _, st := range stats {
		r := row{
			name:  string(st.Stage),
			items: fmt.Sprint(st.Items),
			dur:   st.Duration.Round(time.Millisecond).String(),
		}
		if st.Items > 0 && st.Duration > 0 {
			perSec := float64(st.Items) / st.Duration.Seconds()
			r.rate = fmt.Sprintf("  (%.0f items/s)", perSec)
		}
		if len(r.name) > nameW {
			nameW = len(r.name)
		}
		if len(r.items) > itemsW {
			itemsW = len(r.items)
		}
		if len(r.dur) > durW {
			durW = len(r.dur)
		}
		rows = append(rows, r)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %*s items  %*s%s\n", nameW, r.name, itemsW, r.items, durW, r.dur, r.rate)
	}
	return strings.TrimRight(b.String(), "\n")
}
