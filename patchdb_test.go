package patchdb

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"patchdb/internal/core/nearestlink"
)

const listing1 = `commit b84c2cab55948a5ee70860779b2640913e3ee1ed

    fix stack underflow

diff --git a/src/bits.c b/src/bits.c
--- a/src/bits.c
+++ b/src/bits.c
@@ -953,7 +953,7 @@ bit_write_UMC (Bit_Chain *dat, BITCODE_UMC val)
       if (byte[i] & 0x7f)
         break;
     }
-  if (byte[i] & 0x40)
+  if (byte[i] & 0x40 && i > 0)
   byte[i] &= 0x7f;
   for (j = 4; j >= i; j--)
     {
`

func TestParseAndFeatures(t *testing.T) {
	p, err := ParsePatch(listing1)
	if err != nil {
		t.Fatal(err)
	}
	v := ExtractFeatures(p, 0)
	if len(v) != FeatureDim {
		t.Fatalf("feature dim = %d", len(v))
	}
	names := FeatureNames()
	if len(names) != FeatureDim {
		t.Fatalf("names = %d", len(names))
	}
	if v[0] != 2 { // changed lines
		t.Errorf("changed lines = %v", v[0])
	}
	if !strings.Contains(FormatPatch(p), "diff --git") {
		t.Error("FormatPatch lost structure")
	}
	seq := TokenSequence(p)
	if len(seq) == 0 {
		t.Error("empty token sequence")
	}
	if got := AbstractTokens("x = f(1);"); strings.Join(got, " ") != "VAR = FUNC ( NUM ) ;" {
		t.Errorf("AbstractTokens = %v", got)
	}
}

func TestCategorizeListing1(t *testing.T) {
	p, err := ParsePatch(listing1)
	if err != nil {
		t.Fatal(err)
	}
	// CVE-2019-20912 strengthens a bound-ish conditional.
	got := CategorizePatch(p)
	if got != PatternBoundCheck && got != PatternSanityCheck {
		t.Errorf("pattern = %v, want a check class", got)
	}
}

func TestNearestLinkFacade(t *testing.T) {
	sec := [][]float64{{0, 0}, {5, 5}}
	wild := [][]float64{{0.1, 0}, {5, 5.1}, {99, 99}}
	links, err := NearestLink(context.Background(), sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d", len(links))
	}
	w, err := FeatureWeights(sec, wild)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 {
		t.Fatalf("weights = %v", w)
	}

	var stats NearestLinkStats
	sLinks, err := NearestLink(context.Background(), sec, wild, &NearestLinkOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sLinks, links) {
		t.Fatalf("links with stats = %v, want %v", sLinks, links)
	}
	if stats.HeapPops == 0 || stats.DistanceEvals == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	var totals NearestLinkTotals
	totals.Add(stats)
	if totals.Searches != 1 || totals.String() == "" {
		t.Fatalf("totals = %+v", totals)
	}
}

// TestNearestLinkFacadeOverflow checks the facade on finite features whose
// raw squared distances or norms overflow: weighted, every row links, and
// the links match ReferenceSearch at workers 1 and 3.
func TestNearestLinkFacadeOverflow(t *testing.T) {
	cases := []struct {
		name      string
		sec, wild [][]float64
	}{
		{"all-overflow", [][]float64{{1e200}}, [][]float64{{-1e200}}},
		{"mixed-rows", [][]float64{{1e200, 0}, {1, 1}, {2, 2}},
			[][]float64{{-1e200, 0}, {1.5, 1}, {0, 0}, {3, 3}}},
		{"overflowed-norm", [][]float64{{1e154, 1e154}},
			[][]float64{{1e154, 0.8e154}, {1e154, 0.7e154}}},
	}
	for _, c := range cases {
		want, err := nearestlink.ReferenceSearch(c.sec, c.wild, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := NearestLink(context.Background(), c.sec, c.wild, &NearestLinkOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s w=%d: %v", c.name, workers, err)
			}
			if n := min(len(c.sec), len(c.wild)); len(got) != n || !reflect.DeepEqual(got, want) {
				t.Errorf("%s w=%d: links = %v, reference %v, want %d links", c.name, workers, got, want, n)
			}
		}
	}
}

func TestOversampleFacade(t *testing.T) {
	src := "int f(int a)\n{\n\tif (a > 0)\n\t\treturn 1;\n\treturn 0;\n}\n"
	file, err := ParseC(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs := file.IfStmts()
	if len(ifs) != 1 {
		t.Fatalf("ifs = %d", len(ifs))
	}
	out, err := ApplyVariant(src, ifs[0], VariantOneAnd)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "_SYS_ONE && (a > 0)") {
		t.Errorf("variant output:\n%s", out)
	}
}

func TestClassifierFacades(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {5, 5}, {5, 6}, {0, 0.5}, {5, 5.5}}
	y := []int{0, 0, 1, 1, 0, 1}
	for name, c := range map[string]Classifier{
		"forest":     NewRandomForest(10, 1),
		"tree":       NewDecisionTree(4),
		"reptree":    NewREPTree(1),
		"logistic":   NewLogistic(),
		"sgd":        NewSGD(1),
		"svm":        NewSVM(1),
		"smo":        NewSMO(1),
		"perceptron": NewVotedPerceptron(1),
		"bayes":      NewNaiveBayes(),
		"bayesnet":   NewBayesNet(),
	} {
		if err := c.Fit(x, y); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p := c.Proba([]float64{5, 5}); p < 0 || p > 1 {
			t.Errorf("%s proba = %v", name, p)
		}
	}
	rnn := NewRNN(5, 1)
	if err := rnn.FitTokens([][]string{{"a", "b"}, {"MARKER", "b"}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateFacade(t *testing.T) {
	m := Evaluate([]int{1, 0}, []int{1, 1})
	if m.TP != 1 || m.FN != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if ci := ConfidenceInterval95(0.3, 1000); ci <= 0 {
		t.Errorf("ci = %v", ci)
	}
}

func TestBuildEndToEnd(t *testing.T) {
	ds, report, err := Build(context.Background(), BuilderConfig{
		Seed:              3,
		NVDSize:           60,
		NonSecuritySize:   120,
		WildPools:         []int{800},
		RoundsPerPool:     []int{2},
		SyntheticPerPatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := ds.Stats()
	if stats.NVD == 0 || stats.NVD > 60 {
		t.Errorf("nvd = %d", stats.NVD)
	}
	if stats.Wild == 0 {
		t.Error("no wild security patches discovered")
	}
	if stats.NonSecurity < 120 {
		t.Errorf("non-security = %d", stats.NonSecurity)
	}
	if stats.Synthetic == 0 {
		t.Error("no synthetic patches")
	}
	if report.Crawl.Downloaded == 0 || report.Crawl.Entries <= report.Crawl.WithPatchRefs {
		t.Errorf("crawl stats = %+v (feed noise entries must exist)", report.Crawl)
	}
	if len(report.Rounds) != 2 {
		t.Errorf("rounds = %d", len(report.Rounds))
	}
	if report.HumanVerifications == 0 {
		t.Error("no verification effort recorded")
	}
	// Every record's text must re-parse.
	for _, r := range ds.SecurityPatches()[:5] {
		if _, err := r.Patch(); err != nil {
			t.Errorf("record %s: %v", r.ID, err)
		}
	}
	// All NVD records carry CVE ids; wild ones do not.
	for _, r := range ds.NVD {
		if !strings.HasPrefix(r.CVE, "CVE-") {
			t.Errorf("nvd record without CVE: %+v", r.ID)
		}
	}
	for _, r := range ds.Wild {
		if r.CVE != "" {
			t.Errorf("wild record with CVE %q (silent patches are unindexed)", r.CVE)
		}
	}

	// JSON round trip.
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Stats() != stats {
		t.Errorf("round trip stats: %+v vs %+v", ds2.Stats(), stats)
	}

	// File round trip.
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := ds.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	ds3, err := LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds3.Stats() != stats {
		t.Error("file round trip changed stats")
	}

	// Distribution covers only security patches.
	dist := ds.Distribution()
	sum := 0
	for _, n := range dist {
		sum += n
	}
	if sum != stats.NVD+stats.Wild {
		t.Errorf("distribution total = %d, want %d", sum, stats.NVD+stats.Wild)
	}
}

// TestBuildDeterministicAcrossWorkers proves the tentpole invariant: the
// built dataset is a pure function of the seed, no matter how many workers
// run the crawl, extraction, and search stages.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	cfg := BuilderConfig{
		Seed:              7,
		NVDSize:           40,
		NonSecuritySize:   80,
		WildPools:         []int{400, 300},
		RoundsPerPool:     []int{2, 1},
		SyntheticPerPatch: 2,
	}
	build := func(workers int) (*Dataset, *BuildReport) {
		t.Helper()
		c := cfg
		c.Workers = workers
		ds, report, err := Build(context.Background(), c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ds, report
	}
	ds1, rep1 := build(1)
	for _, workers := range []int{3, runtime.GOMAXPROCS(0)} {
		dsN, repN := build(workers)
		if !reflect.DeepEqual(ds1, dsN) {
			t.Fatalf("workers=%d: dataset differs from workers=1", workers)
		}
		if len(rep1.Rounds) != len(repN.Rounds) {
			t.Fatalf("workers=%d: %d rounds vs %d", workers, len(repN.Rounds), len(rep1.Rounds))
		}
		for i := range rep1.Rounds {
			a, b := rep1.Rounds[i], repN.Rounds[i]
			// Wall-clock may differ; every engine counter (evals, pruned,
			// heap pops, rescans) must not.
			a.Search.Duration, b.Search.Duration = 0, 0
			if a != b {
				t.Fatalf("workers=%d: round %d accounting differs: %+v vs %+v", workers, i, b, a)
			}
		}
		if rep1.HumanVerifications != repN.HumanVerifications {
			t.Fatalf("workers=%d: verification counts differ", workers)
		}
	}
}

// TestBuildCheckpointedMatchesPlain proves the happy path of the journal:
// enabling CheckpointDir changes nothing about the output, the journal holds
// every planned stage afterwards, and CheckpointPlan names them.
func TestBuildCheckpointedMatchesPlain(t *testing.T) {
	cfg := BuilderConfig{
		Seed:              3,
		NVDSize:           30,
		NonSecuritySize:   60,
		WildPools:         []int{200},
		RoundsPerPool:     []int{1},
		SyntheticPerPatch: 1,
		Workers:           2,
	}
	plain, _, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := cfg
	ckpt.CheckpointDir = t.TempDir()
	journaled, report, err := Build(context.Background(), ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, journaled) {
		t.Error("checkpointed build produced a different dataset than a plain build")
	}
	if report.ResumedFrom != "" {
		t.Errorf("ResumedFrom = %q for a fresh build", report.ResumedFrom)
	}
	wantPlan := []string{"crawl", "seed", "augment-1", "oversample"}
	if got := CheckpointPlan(cfg); !reflect.DeepEqual(got, wantPlan) {
		t.Errorf("CheckpointPlan = %v, want %v", got, wantPlan)
	}
	// The journal now holds every stage: resuming runs nothing and returns
	// the identical dataset.
	resume := ckpt
	resume.Resume = true
	resumed, resumedReport, err := Build(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	if resumedReport.ResumedFrom != "oversample" {
		t.Errorf("ResumedFrom = %q, want oversample", resumedReport.ResumedFrom)
	}
	if !reflect.DeepEqual(plain, resumed) {
		t.Error("fully-journaled resume produced a different dataset")
	}
	// The engine totals are the sum of the rounds' Search, also when every
	// round comes from the journal.
	for name, r := range map[string]*BuildReport{"fresh": report, "resumed": resumedReport} {
		var want NearestLinkTotals
		for _, round := range r.Rounds {
			want.Add(round.Search)
		}
		if want.Searches == 0 || r.Search != want {
			t.Errorf("%s build: Search = %+v, want the rounds' sum %+v", name, r.Search, want)
		}
	}
	if resumedReport.Search != report.Search {
		t.Errorf("resumed Search = %+v, fresh %+v", resumedReport.Search, report.Search)
	}
}

func TestBuildFeedNoiseSemantics(t *testing.T) {
	base := BuilderConfig{Seed: 5, NVDSize: 30, NonSecuritySize: 60, WildPools: []int{200}, RoundsPerPool: []int{1}}

	// Negative disables: every feed entry carries a patch reference.
	cfg := base
	cfg.FeedNoise = -1
	_, report, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Crawl.Entries != report.Crawl.WithPatchRefs {
		t.Errorf("FeedNoise=-1: %d entries vs %d with refs, want equal",
			report.Crawl.Entries, report.Crawl.WithPatchRefs)
	}

	// A small explicit value is honored, not coerced to the 0.1 default.
	cfg = base
	cfg.FeedNoise = 0.5
	_, report, err = Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if noise := report.Crawl.Entries - report.Crawl.WithPatchRefs; noise != 15 {
		t.Errorf("FeedNoise=0.5: %d noise entries, want 15", noise)
	}
}

func TestBuildRatioThresholdDisabled(t *testing.T) {
	// With the early exit disabled, every scheduled round runs even if a
	// round's ratio falls below any plausible threshold.
	cfg := BuilderConfig{
		Seed: 11, NVDSize: 30, NonSecuritySize: 60,
		WildPools: []int{300}, RoundsPerPool: []int{3},
		RatioThreshold: -1,
	}
	_, report, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rounds) != 3 {
		t.Errorf("rounds = %d, want all 3 with threshold disabled", len(report.Rounds))
	}
}

func TestBuildProgressAndStages(t *testing.T) {
	var mu sync.Mutex
	seen := map[Stage]int{} // max done per stage
	totals := map[Stage]int{}
	cfg := BuilderConfig{
		Seed: 3, NVDSize: 25, NonSecuritySize: 50,
		WildPools: []int{200}, RoundsPerPool: []int{1}, SyntheticPerPatch: 1,
		Progress: func(s Stage, done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done > seen[s] {
				seen[s] = done
			}
			totals[s] = total
		},
	}
	_, report, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []Stage{StageCrawl, StageExtract, StageAugment, StageSynthesize} {
		if totals[stage] == 0 {
			t.Errorf("stage %s: no progress reported", stage)
		}
		if seen[stage] != totals[stage] {
			t.Errorf("stage %s: finished at %d/%d", stage, seen[stage], totals[stage])
		}
	}
	// The extract total covers the crawled seed plus the wild pool.
	if want := report.Crawl.Downloaded - report.Crawl.EmptyAfterClean + 200; totals[StageExtract] != want {
		t.Errorf("extract total = %d, want %d", totals[StageExtract], want)
	}
	if len(report.Stages) == 0 {
		t.Fatal("no stage metrics in report")
	}
	got := map[Stage]StageStat{}
	for _, st := range report.Stages {
		got[st.Stage] = st
	}
	if st := got[StageExtract]; st.Items != totals[StageExtract] || st.Duration <= 0 {
		t.Errorf("extract stage stat = %+v", st)
	}
	if st := got[StageSearch]; st.Duration <= 0 {
		t.Errorf("search stage stat = %+v (want per-round search timing)", st)
	}
}

// TestBuildCancelMidway cancels during the extraction stage and verifies the
// pipeline unwinds with a context error instead of finishing.
func TestBuildCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := BuilderConfig{
		Seed: 3, NVDSize: 20, NonSecuritySize: 40,
		WildPools: []int{300}, RoundsPerPool: []int{1},
		Progress: func(s Stage, done, total int) {
			if s == StageExtract && done > 10 {
				cancel()
			}
		},
	}
	_, _, err := Build(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestBuildRoundsPoolsMismatch(t *testing.T) {
	_, _, err := Build(context.Background(), BuilderConfig{
		NVDSize: 5, NonSecuritySize: 10,
		WildPools: []int{50}, RoundsPerPool: []int{1, 2, 3},
	})
	if err == nil || !strings.Contains(err.Error(), "RoundsPerPool") {
		t.Fatalf("err = %v, want RoundsPerPool length error", err)
	}
	// Empty RoundsPerPool still gets the default schedule.
	if _, _, err := Build(context.Background(), BuilderConfig{
		NVDSize: 5, NonSecuritySize: 10, WildPools: []int{50},
	}); err != nil {
		t.Fatalf("empty RoundsPerPool: %v", err)
	}
}

func TestBuildCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Build(ctx, BuilderConfig{NVDSize: 5, NonSecuritySize: 10, WildPools: []int{50}, RoundsPerPool: []int{1}}); err == nil {
		t.Error("Build with canceled context succeeded")
	}
}

func TestComputePatchFacade(t *testing.T) {
	p := ComputePatch("abc", "m", map[string]string{"a.c": "x\n"}, map[string]string{"a.c": "y\n"}, 3)
	if len(p.Files) != 1 {
		t.Fatalf("files = %d", len(p.Files))
	}
}

// chaosCfg is the base config for fault-injected build tests: small world,
// moderate fault rate, the default retry budget.
func chaosCfg() BuilderConfig {
	return BuilderConfig{
		Seed:            11,
		NVDSize:         60,
		NonSecuritySize: 60,
		WildPools:       []int{200},
		RoundsPerPool:   []int{1},
		FaultRate:       0.3,
	}
}

func TestBuildWithFaultsRecovers(t *testing.T) {
	// The acceptance bar: at a 30% transient-failure rate with the default
	// budget the crawl recovers >= 95% of patches; the rest is quarantined
	// with attempt counts and last errors, and the report says Degraded.
	ds, report, err := Build(context.Background(), chaosCfg())
	if err != nil {
		t.Fatal(err)
	}
	crawl := report.Crawl
	if crawl.Retries == 0 {
		t.Error("no retries recorded at a 30% fault rate")
	}
	total := crawl.Downloaded + len(crawl.Quarantine)
	if total != crawl.WithPatchRefs {
		t.Errorf("downloaded %d + quarantined %d != %d patch refs: downloads lost without a trace",
			crawl.Downloaded, len(crawl.Quarantine), crawl.WithPatchRefs)
	}
	if ratio := float64(crawl.Downloaded) / float64(total); ratio < 0.95 {
		t.Errorf("recovered %.1f%% of patches, want >= 95%%", 100*ratio)
	}
	if report.Degraded != (len(crawl.Quarantine) > 0) {
		t.Errorf("Degraded = %v with %d quarantined", report.Degraded, len(crawl.Quarantine))
	}
	for i, q := range crawl.Quarantine {
		if q.Attempts != 4 || q.LastError == "" || q.CVE == "" || q.URL == "" {
			t.Errorf("quarantine[%d] incomplete: %+v", i, q)
		}
	}
	if len(ds.NVD) != crawl.Downloaded-crawl.EmptyAfterClean {
		t.Errorf("NVD records = %d, want %d", len(ds.NVD), crawl.Downloaded-crawl.EmptyAfterClean)
	}
}

func TestBuildFailureRatioThreshold(t *testing.T) {
	// Drive the quarantine ratio up with a tight budget, then check both
	// sides of the threshold: a low ceiling fails the build, a negative one
	// (never fail) ships the degraded dataset with the quarantine attached.
	cfg := chaosCfg()
	cfg.FaultRate = 0.5
	cfg.MaxRetries = 1 // two attempts: ~25% of downloads quarantine

	strict := cfg
	strict.MaxCrawlFailureRatio = 0.001
	_, _, err := Build(context.Background(), strict)
	if err == nil || !strings.Contains(err.Error(), "degraded beyond threshold") {
		t.Fatalf("err = %v, want degraded-beyond-threshold", err)
	}

	lenient := cfg
	lenient.MaxCrawlFailureRatio = -1
	_, report, err := Build(context.Background(), lenient)
	if err != nil {
		t.Fatalf("MaxCrawlFailureRatio=-1 must never fail the build: %v", err)
	}
	if !report.Degraded || len(report.Crawl.Quarantine) == 0 {
		t.Errorf("Degraded=%v quarantined=%d, want a visibly degraded build",
			report.Degraded, len(report.Crawl.Quarantine))
	}
	for i, q := range report.Crawl.Quarantine {
		if q.Attempts != 2 {
			t.Errorf("quarantine[%d].Attempts = %d, want 2", i, q.Attempts)
		}
	}
}

// stripQuarantineBase removes the per-run loopback origin from quarantine
// URLs so reports from two builds (different ephemeral ports) compare equal.
func stripQuarantineBase(report *BuildReport) {
	for i, q := range report.Crawl.Quarantine {
		if j := strings.Index(q.URL, "/github/"); j >= 0 {
			report.Crawl.Quarantine[i].URL = q.URL[j:]
		}
	}
}

func TestBuildDeterministicUnderFaults(t *testing.T) {
	// The determinism contract extends to chaos: same Seed + fault config
	// means a byte-identical dataset and quarantine report at any worker
	// count. BreakerTrips is timing-dependent and excluded.
	cfg := chaosCfg()
	cfg.FaultRate = 0.5
	cfg.MaxRetries = 1
	cfg.MaxCrawlFailureRatio = -1

	build := func(workers int) (*Dataset, *BuildReport) {
		t.Helper()
		c := cfg
		c.Workers = workers
		ds, report, err := Build(context.Background(), c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		stripQuarantineBase(report)
		return ds, report
	}
	ds1, rep1 := build(1)
	dsN, repN := build(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(ds1, dsN) {
		t.Fatal("dataset differs across worker counts under faults")
	}
	if len(rep1.Crawl.Quarantine) == 0 {
		t.Error("test too weak: nothing quarantined")
	}
	c1, cN := rep1.Crawl, repN.Crawl
	if c1.Downloaded != cN.Downloaded || c1.Retries != cN.Retries || len(c1.Quarantine) != len(cN.Quarantine) {
		t.Fatalf("crawl stats differ: %+v vs %+v", c1, cN)
	}
	if !reflect.DeepEqual(c1.Quarantine, cN.Quarantine) {
		t.Fatalf("quarantine reports differ:\n%+v\nvs\n%+v", c1.Quarantine, cN.Quarantine)
	}
}
