package patchdb

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"patchdb/internal/telemetry"
)

// telemetryTestConfig is a small but full-featured build: crawl, two pools,
// augmentation rounds, and synthesis, so every pipeline stage appears in the
// run report.
func telemetryTestConfig() BuilderConfig {
	return BuilderConfig{
		Seed:              11,
		NVDSize:           40,
		NonSecuritySize:   80,
		WildPools:         []int{400},
		RoundsPerPool:     []int{2},
		SyntheticPerPatch: 2,
	}
}

// TestBuildRunReport asserts the acceptance shape of the tentpole: a build
// with -telemetry-out semantics produces a RunReport JSON containing every
// pipeline stage, crawl accounting, nearest-link counters, a metrics
// snapshot, and a span tree.
func TestBuildRunReport(t *testing.T) {
	cfg := telemetryTestConfig()
	cfg.Telemetry = NewTelemetryHub()
	cfg.TelemetryOut = filepath.Join(t.TempDir(), "run-report.json")

	_, report, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Run == nil {
		t.Fatal("report.Run is nil")
	}

	data, err := os.ReadFile(cfg.TelemetryOut)
	if err != nil {
		t.Fatalf("run report file not written: %v", err)
	}
	var rr RunReport
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("run report is not valid JSON: %v", err)
	}
	if rr.Tool != "patchdb.Build" {
		t.Errorf("Tool = %q", rr.Tool)
	}

	// Every pipeline stage must appear with a positive duration.
	gotStages := map[string]RunReportStage{}
	for _, st := range rr.Stages {
		gotStages[st.Stage] = st
	}
	for _, want := range []Stage{StageCrawl, StageExtract, StageSearch, StageAugment, StageSynthesize} {
		st, ok := gotStages[string(want)]
		if !ok {
			t.Errorf("run report missing stage %q (have %v)", want, rr.Stages)
			continue
		}
		if st.DurationNS <= 0 {
			t.Errorf("stage %q has non-positive duration %d", want, st.DurationNS)
		}
	}

	// Crawl and search sections must reflect real work.
	if rr.Crawl == nil || rr.Crawl.Entries == 0 || rr.Crawl.Downloaded == 0 {
		t.Errorf("crawl section = %+v", rr.Crawl)
	}
	if rr.Search == nil || rr.Search.Searches == 0 || rr.Search.DistanceEvals == 0 {
		t.Errorf("search section = %+v", rr.Search)
	}

	// The metrics snapshot must include the instrumented families.
	families := map[string]bool{}
	for _, p := range rr.Metrics {
		families[p.Name] = true
	}
	for _, want := range []string{
		"patchdb_stage_items_total",
		"patchdb_stage_duration_nanoseconds_total",
		"crawl_quarantined_total",
		"retry_attempts_total",
	} {
		if !families[want] {
			t.Errorf("metrics snapshot missing family %q", want)
		}
	}

	// Spans: a build root span, the crawl stage span under it, and the
	// crawler's download span under the stage.
	var buildSpan, crawlSpan, dlSpan *telemetry.SpanRecord
	for i := range rr.Spans {
		switch rr.Spans[i].Name {
		case "build":
			buildSpan = &rr.Spans[i]
		case "crawl":
			crawlSpan = &rr.Spans[i]
		case "nvd.download":
			dlSpan = &rr.Spans[i]
		}
	}
	if buildSpan == nil || crawlSpan == nil || dlSpan == nil {
		t.Fatalf("spans missing build/crawl/nvd.download: %+v", rr.Spans)
	}
	if crawlSpan.Parent != buildSpan.ID {
		t.Errorf("crawl parent = %d, want build span id %d", crawlSpan.Parent, buildSpan.ID)
	}
	if dlSpan.Parent != crawlSpan.ID {
		t.Errorf("nvd.download parent = %d, want crawl span id %d", dlSpan.Parent, crawlSpan.ID)
	}
}

// timingMetric reports whether a metric family carries wall-clock-derived
// values (durations, latency histograms) or other timing-dependent counts
// (circuit-breaker activity); those are legitimately worker-count dependent
// and excluded from the determinism contract.
func timingMetric(name string) bool {
	return strings.Contains(name, "duration") ||
		strings.Contains(name, "seconds") ||
		strings.Contains(name, "breaker")
}

// TestBuildTelemetryDeterministicAcrossWorkers is the acceptance check: on a
// fault-free build, every counter-valued metric and every crawl/search count
// in the run report is identical between a serial and a parallel build.
func TestBuildTelemetryDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *RunReport {
		t.Helper()
		cfg := telemetryTestConfig()
		cfg.Workers = workers
		cfg.Telemetry = NewTelemetryHub()
		_, report, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return report.Run
	}
	counters := func(rr *RunReport) map[string]float64 {
		out := map[string]float64{}
		for _, p := range rr.Metrics {
			if p.Kind != telemetry.KindCounter || timingMetric(p.Name) {
				continue
			}
			id := p.Name
			for _, l := range p.Labels {
				id += "{" + l.Key + "=" + l.Value + "}"
			}
			out[id] = p.Value
		}
		return out
	}

	rr1, rr8 := run(1), run(8)

	c1, c8 := counters(rr1), counters(rr8)
	if len(c1) == 0 {
		t.Fatal("no counter metrics collected")
	}
	for id, v := range c1 {
		if c8[id] != v {
			t.Errorf("counter %s: workers=1 %v vs workers=8 %v", id, v, c8[id])
		}
	}
	for id := range c8 {
		if _, ok := c1[id]; !ok {
			t.Errorf("counter %s only present at workers=8", id)
		}
	}

	// Crawl section: all counts must match (timing-dependent breaker trips
	// cannot occur on a fault-free build, so compare the whole struct).
	if *rr1.Crawl != *rr8.Crawl {
		t.Errorf("crawl sections differ:\n  workers=1: %+v\n  workers=8: %+v", *rr1.Crawl, *rr8.Crawl)
	}

	// Search section: every engine counter must match; only the wall-clock
	// duration may differ.
	s1, s8 := *rr1.Search, *rr8.Search
	s1.DurationNS, s8.DurationNS = 0, 0
	if s1 != s8 {
		t.Errorf("search sections differ:\n  workers=1: %+v\n  workers=8: %+v", s1, s8)
	}

	// Stage item counts (not durations) must also agree.
	items := func(rr *RunReport) map[string]int {
		out := map[string]int{}
		for _, st := range rr.Stages {
			out[st.Stage] = st.Items
		}
		return out
	}
	i1, i8 := items(rr1), items(rr8)
	for stage, n := range i1 {
		if i8[stage] != n {
			t.Errorf("stage %q items: workers=1 %d vs workers=8 %d", stage, n, i8[stage])
		}
	}
}

// TestBuildPrivateHubIsolation checks that a Build given no hub creates its
// own: two concurrent-ish builds must not leak counters into each other or
// into the process-wide default hub.
func TestBuildPrivateHubIsolation(t *testing.T) {
	before := len(DefaultTelemetryHub().Registry.Snapshot())

	cfg := telemetryTestConfig()
	_, report, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Run == nil || len(report.Run.Metrics) == 0 {
		t.Fatal("build without explicit hub produced no run report metrics")
	}
	after := len(DefaultTelemetryHub().Registry.Snapshot())
	if after != before {
		t.Errorf("build leaked %d metric families into the default hub", after-before)
	}

	// Two sequential builds with private hubs must report identical counter
	// state (no cross-build accumulation).
	_, report2, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range report.Run.Metrics {
		if timingMetric(p.Name) || p.Kind != telemetry.KindCounter {
			continue
		}
		q := report2.Run.Metrics[i]
		if p.Name != q.Name || p.Value != q.Value {
			t.Errorf("metric %d differs across isolated builds: %s=%v vs %s=%v",
				i, p.Name, p.Value, q.Name, q.Value)
		}
	}
}

// TestServeTelemetryDuringBuild scrapes /metrics after a build published
// into a served hub — the README quickstart flow.
func TestServeTelemetryDuringBuild(t *testing.T) {
	hub := NewTelemetryHub()
	srv, err := ServeTelemetry("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := telemetryTestConfig()
	cfg.Telemetry = hub
	if _, _, err := Build(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := telemetry.WriteProm(&sb, hub.Registry); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE patchdb_stage_items_total counter",
		`patchdb_stage_items_total{stage="crawl"}`,
		"# TYPE retry_attempt_seconds histogram",
		"retry_attempt_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
}

// stageSpans names the spans whose End readings make up each stage's
// duration: a stage's time is the sum over its spans, read from one clock.
var stageSpans = map[Stage][]string{
	StageGenerate:   {"generate"},
	StageCrawl:      {"crawl"},
	StageExtract:    {"extract.seed", "extract.pool"},
	StageSearch:     {"nearestlink.search"},
	StageAugment:    {"augment.pool"},
	StageSynthesize: {"synthesize"},
	StageCheckpoint: {"checkpoint"},
}

// TestBuildStageTimesAreSpanTimes is the one-clock contract: every stage
// duration in the RunReport written to TelemetryOut, and the search total,
// equal exactly the summed durations of the spans that trace them.
func TestBuildStageTimesAreSpanTimes(t *testing.T) {
	hub := NewTelemetryHub()
	cfg := telemetryTestConfig()
	cfg.Telemetry = hub
	cfg.CheckpointDir = t.TempDir()
	cfg.TelemetryOut = filepath.Join(t.TempDir(), "run-report.json")
	if _, _, err := Build(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if n := hub.Tracer.Dropped(); n != 0 {
		t.Fatalf("tracer dropped %d spans; the sums would be partial", n)
	}
	data, err := os.ReadFile(cfg.TelemetryOut)
	if err != nil {
		t.Fatal(err)
	}
	var rr RunReport
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	spanNS := map[string]int64{}
	for _, sp := range rr.Spans {
		spanNS[sp.Name] += sp.DurationNS
	}
	if len(rr.Stages) != len(stageSpans) {
		t.Errorf("run report has %d stages, want %d: %+v", len(rr.Stages), len(stageSpans), rr.Stages)
	}
	for _, st := range rr.Stages {
		names, ok := stageSpans[Stage(st.Stage)]
		if !ok {
			t.Errorf("stage %q has no span mapping", st.Stage)
			continue
		}
		var sum int64
		for _, name := range names {
			sum += spanNS[name]
		}
		if st.DurationNS <= 0 || st.DurationNS != sum {
			t.Errorf("stage %q: duration %d ns, its spans %v sum to %d ns", st.Stage, st.DurationNS, names, sum)
		}
	}
	if rr.Search == nil || rr.Search.DurationNS != spanNS["nearestlink.search"] {
		t.Errorf("search duration = %+v, nearestlink.search spans sum to %d ns", rr.Search, spanNS["nearestlink.search"])
	}
}

// TestBuildSharedHubStagesAreLocal runs two identical builds on one hub:
// each report's stage item counts are its own build's, and the hub's stage
// counters hold their sum.
func TestBuildSharedHubStagesAreLocal(t *testing.T) {
	hub := NewTelemetryHub()
	cfg := telemetryTestConfig()
	cfg.Telemetry = hub
	var reports [2]*BuildReport
	for i := range reports {
		_, report, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = report
	}
	a, b := reports[0].Stages, reports[1].Stages
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stage lists differ: %+v vs %+v", a, b)
	}
	for i := range a {
		if a[i].Stage != b[i].Stage || a[i].Items != b[i].Items {
			t.Errorf("stage %d: first build %s/%d items, second %s/%d", i, a[i].Stage, a[i].Items, b[i].Stage, b[i].Items)
		}
		label := telemetry.L("stage", string(a[i].Stage))
		if got := hub.Registry.Counter("patchdb_stage_items_total", label).Value(); got != float64(a[i].Items+b[i].Items) {
			t.Errorf("hub %s items counter = %v, want %d", a[i].Stage, got, a[i].Items+b[i].Items)
		}
	}
}

// TestBuildStageTimesWithoutTracer checks that a hub with no tracer still
// yields stage and search durations: a span started on a nil tracer
// measures time without recording.
func TestBuildStageTimesWithoutTracer(t *testing.T) {
	cfg := telemetryTestConfig()
	cfg.Telemetry = &telemetry.Hub{Registry: telemetry.NewRegistry()}
	_, report, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Stages) == 0 || len(report.Run.Spans) != 0 {
		t.Fatalf("stages = %+v, spans = %d", report.Stages, len(report.Run.Spans))
	}
	for _, st := range report.Stages {
		if st.Duration <= 0 {
			t.Errorf("stage %s duration = %v, want > 0", st.Stage, st.Duration)
		}
	}
	if report.Search.Duration <= 0 {
		t.Errorf("search duration = %v, want > 0", report.Search.Duration)
	}
}

// TestBuildMetricFamilies pins the registry families and the span names of
// a fault-injected, checkpointed build, so each build fact has one record:
// the crawl's downloads and retries are read from the stage and retry
// families, and every stage is timed by its own span with no package span
// inside it timing the same call.
func TestBuildMetricFamilies(t *testing.T) {
	hub := NewTelemetryHub()
	cfg := telemetryTestConfig()
	cfg.FaultRate = 0.1
	cfg.CheckpointDir = t.TempDir()
	cfg.Telemetry = hub
	_, report, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Crawl.Retries == 0 {
		t.Fatal("fault-injected build made no retries")
	}

	// Breaker families appear only when request timing trips the breaker.
	var families []string
	for _, p := range report.Run.Metrics {
		if !strings.HasPrefix(p.Name, "breaker_") && !slices.Contains(families, p.Name) {
			families = append(families, p.Name)
		}
	}
	sort.Strings(families)
	wantFamilies := []string{
		"checkpoint_write_bytes_total",
		"checkpoint_writes_total",
		"crawl_empty_after_clean_total",
		"crawl_quarantined_total",
		"faults_injected_total",
		"faults_requests_total",
		"patchdb_stage_duration_nanoseconds_total",
		"patchdb_stage_items_total",
		"retry_attempt_seconds",
		"retry_attempts_total",
		"retry_backoff_seconds",
		"retry_retries_total",
	}
	if !reflect.DeepEqual(families, wantFamilies) {
		t.Errorf("families = %q\nwant %q", families, wantFamilies)
	}

	spans := map[string]int{}
	for _, sp := range report.Run.Spans {
		spans[sp.Name]++
	}
	wantSpans := map[string]int{
		"build": 1, "generate": 1, "crawl": 1, "nvd.fetch_feed": 1, "nvd.download": 1,
		"checkpoint": 4, "extract.seed": 1, "extract.pool": 1, "augment.pool": 1,
		"nearestlink.search": 2, "nearestlink.prepare": 2, "nearestlink.scan": 2,
		"nearestlink.deepen": 2, "nearestlink.greedy": 2,
		"synthesize": 1, "oversample.enumerate": 1, "oversample.render": 1,
	}
	if !reflect.DeepEqual(spans, wantSpans) {
		t.Errorf("span names = %v\nwant %v", spans, wantSpans)
	}

	reg := hub.Registry
	if got := reg.Counter("retry_retries_total").Value(); got != float64(report.Crawl.Retries) {
		t.Errorf("retry_retries_total = %v, want Crawl.Retries %d", got, report.Crawl.Retries)
	}
	if got := reg.Counter("patchdb_stage_items_total", telemetry.L("stage", "crawl")).Value(); got != float64(report.Crawl.Downloaded) {
		t.Errorf("crawl stage items = %v, want Crawl.Downloaded %d", got, report.Crawl.Downloaded)
	}
	if got := reg.Counter("crawl_quarantined_total").Value(); got != float64(len(report.Crawl.Quarantine)) {
		t.Errorf("crawl_quarantined_total = %v, want len(Crawl.Quarantine) %d", got, len(report.Crawl.Quarantine))
	}
}

// TestBuildSpanTreeInvariantAcrossWorkers checks that the span tree has the
// same names and parent structure at any worker count: the multiset of
// root-to-span name paths is identical at Workers 1 and 8.
func TestBuildSpanTreeInvariantAcrossWorkers(t *testing.T) {
	paths := func(workers int) []string {
		t.Helper()
		hub := NewTelemetryHub()
		cfg := telemetryTestConfig()
		cfg.Workers = workers
		cfg.Telemetry = hub
		_, report, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := hub.Tracer.Dropped(); n != 0 {
			t.Fatalf("workers=%d: tracer dropped %d spans", workers, n)
		}
		path := map[uint64]string{}
		var out []string
		for _, sp := range report.Run.Spans { // parents sort before children
			p := sp.Name
			if sp.Parent != 0 {
				parent, ok := path[sp.Parent]
				if !ok {
					t.Fatalf("workers=%d: span %s has unknown parent %d", workers, sp.Name, sp.Parent)
				}
				p = parent + "/" + sp.Name
			}
			path[sp.ID] = p
			out = append(out, p)
		}
		sort.Strings(out)
		return out
	}
	p1, p8 := paths(1), paths(8)
	if !reflect.DeepEqual(p1, p8) {
		t.Errorf("span trees differ:\n  workers=1: %v\n  workers=8: %v", p1, p8)
	}
}

// TestSynthesizeSpans pins the spans of the synthesize stage: its children
// are oversample.enumerate and oversample.render, one pair per batch
// window, the same at workers 1 and 8, and they cover at least 95% of the
// stage span.
func TestSynthesizeSpans(t *testing.T) {
	var first []string
	for _, workers := range []int{1, 8} {
		hub := NewTelemetryHub()
		cfg := telemetryTestConfig()
		cfg.NonSecuritySize = 300 // with the NVD and wild records, two windows
		cfg.Workers = workers
		cfg.Telemetry = hub
		_, report, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var stage telemetry.SpanRecord
		for _, sp := range report.Run.Spans {
			if sp.Name == "synthesize" {
				stage = sp
			}
		}
		if stage.ID == 0 {
			t.Fatalf("workers=%d: no synthesize span", workers)
		}
		var children []string
		var childNS int64
		for _, sp := range report.Run.Spans {
			if sp.Parent == stage.ID {
				children = append(children, sp.Name)
				childNS += sp.DurationNS
			}
		}
		sort.Strings(children)
		want := []string{"oversample.enumerate", "oversample.enumerate", "oversample.render", "oversample.render"}
		if !reflect.DeepEqual(children, want) {
			t.Errorf("workers=%d: synthesize children %v, want %v", workers, children, want)
		}
		if float64(childNS) < 0.95*float64(stage.DurationNS) {
			t.Errorf("workers=%d: children cover %d of %d ns (< 95%%)", workers, childNS, stage.DurationNS)
		}
		if first == nil {
			first = children
		} else if !reflect.DeepEqual(children, first) {
			t.Errorf("children differ across workers: %v vs %v", first, children)
		}
	}
}
