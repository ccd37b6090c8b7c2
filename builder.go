package patchdb

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"patchdb/internal/checkpoint"
	"patchdb/internal/core/augment"
	"patchdb/internal/core/oversample"
	"patchdb/internal/corpus"
	"patchdb/internal/diff"
	"patchdb/internal/faults"
	"patchdb/internal/features"
	"patchdb/internal/nvd"
	"patchdb/internal/oracle"
	"patchdb/internal/par"
	"patchdb/internal/pipeline"
	"patchdb/internal/telemetry"
)

// Stage identifies one phase of the construction pipeline; see the Stage*
// constants.
type Stage = pipeline.Stage

// The pipeline stages reported through BuilderConfig.Progress and
// BuildReport.Stages.
const (
	StageGenerate   = pipeline.StageGenerate
	StageCrawl      = pipeline.StageCrawl
	StageExtract    = pipeline.StageExtract
	StageSearch     = pipeline.StageSearch
	StageAugment    = pipeline.StageAugment
	StageSynthesize = pipeline.StageSynthesize
	StageCheckpoint = pipeline.StageCheckpoint
)

// StageStat is one stage's accumulated wall-clock time and item count.
type StageStat = pipeline.StageStat

// FormatStages renders BuildReport.Stages as an aligned table, one stage
// per line.
func FormatStages(stages []StageStat) string {
	return pipeline.FormatStats(stages)
}

// BuilderConfig parameterizes an end-to-end PatchDB construction run.
type BuilderConfig struct {
	// Seed drives all randomness (corpus, augmentation, synthesis). The
	// same Seed yields an identical dataset regardless of Workers.
	Seed int64
	// NVDSize is the number of NVD-indexed security patches (paper: 4076).
	NVDSize int
	// NonSecuritySize is the initial cleaned non-security set (paper: 8352).
	NonSecuritySize int
	// WildPools are the unlabeled pool sizes searched in sequence
	// (paper: 100K, 200K, 200K).
	WildPools []int
	// RoundsPerPool bounds rounds per pool (paper: 3, 1, 1). Empty uses the
	// paper schedule (3 for the first pool, 1 for the rest); any other
	// length than len(WildPools) is an error.
	RoundsPerPool []int
	// SyntheticPerPatch caps synthetic variants per natural patch
	// (0 disables synthesis).
	SyntheticPerPatch int
	// FeedNoise adds CVE entries without usable patch links, modeling the
	// NVD's incomplete references, as a fraction of NVDSize. Zero means the
	// default (0.1); any negative value disables feed noise entirely.
	FeedNoise float64
	// RatioThreshold is the augmentation loop's early-exit threshold: a
	// round whose verified-security ratio falls below it ends the pool's
	// schedule. Zero means augment.DefaultRatioThreshold (0.01); any
	// negative value disables the early exit, so every scheduled round runs.
	RatioThreshold float64
	// Workers bounds the concurrency of the crawl's fetch stage, per-commit
	// feature extraction, and the nearest link search (default: GOMAXPROCS).
	// The output is identical for any worker count.
	Workers int
	// FaultRate injects deterministic transient faults (429s with
	// Retry-After, 500s, connection hangs, truncated and corrupted bodies)
	// into the loopback NVD service at this per-request probability — the
	// chaos-testing knob (0 = no faults; see internal/faults). Fault
	// decisions derive from Seed, so a fault-injected build is reproducible
	// at any worker count.
	FaultRate float64
	// MaxRetries is the per-download retry budget after the first attempt
	// (0 = default 3; negative disables retries entirely).
	MaxRetries int
	// MaxCrawlFailureRatio is the quarantined-download ratio above which a
	// degraded crawl fails the build instead of merely setting
	// BuildReport.Degraded (0 = default 0.25; negative = never fail — the
	// quarantine is reported and the build proceeds).
	MaxCrawlFailureRatio float64
	// CheckpointDir, when non-empty, enables the crash-safe build journal:
	// Build writes a checkpoint (internal/checkpoint) at every stage
	// boundary — post-crawl, post-seed-extraction, after each augmentation
	// pool, and post-oversampling — so a killed build can be resumed. The
	// directory is created if needed; a fresh (non-Resume) build truncates
	// any journal already there.
	CheckpointDir string
	// Resume loads the journal in CheckpointDir and skips every stage it
	// records as completed, producing a dataset bit-identical to an
	// uninterrupted run — including the crawl's quarantine list and
	// Degraded verdict, which are restored rather than re-derived. The
	// journal's seed and config fingerprint must match this config (Workers
	// may differ: output is worker-invariant); a mismatch fails with
	// ErrCheckpointMismatch. Requires CheckpointDir.
	Resume bool
	// CheckpointFault, when non-nil, injects a deterministic crash
	// (ErrInjectedCrash) at one stage's checkpoint write — the chaos hook
	// the kill-and-resume harness drives. Ignored without CheckpointDir.
	CheckpointFault *CheckpointFault
	// Progress, when non-nil, observes pipeline advancement per stage. It
	// is called synchronously from pipeline goroutines and must be cheap
	// and safe for concurrent use.
	Progress pipeline.Progress
	// Telemetry, when non-nil, is the hub (metrics registry + span tracer)
	// the run instruments into — point a telemetry.Serve endpoint at it to
	// scrape /metrics during the build. Nil uses a private hub, so
	// concurrent Builds never mix counters.
	Telemetry *telemetry.Hub
	// TelemetryOut, when non-empty, is a path Build writes the end-of-run
	// RunReport JSON to (also available as BuildReport.Run).
	TelemetryOut string
}

func (c BuilderConfig) withDefaults() BuilderConfig {
	if c.NVDSize <= 0 {
		c.NVDSize = 400
	}
	if c.NonSecuritySize <= 0 {
		c.NonSecuritySize = 2 * c.NVDSize
	}
	if len(c.WildPools) == 0 {
		c.WildPools = []int{8000, 16000, 16000}
		c.RoundsPerPool = []int{3, 1, 1}
	}
	if len(c.RoundsPerPool) == 0 {
		c.RoundsPerPool = make([]int, len(c.WildPools))
		for i := range c.RoundsPerPool {
			c.RoundsPerPool[i] = 1
		}
		c.RoundsPerPool[0] = 3
	}
	switch {
	case c.FeedNoise == 0:
		c.FeedNoise = 0.1
	case c.FeedNoise < 0:
		c.FeedNoise = 0 // explicit disable
	}
	if c.RatioThreshold == 0 {
		c.RatioThreshold = augment.DefaultRatioThreshold
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 3
	case c.MaxRetries < 0:
		c.MaxRetries = 0 // explicit disable: a single attempt per fetch
	}
	switch {
	case c.MaxCrawlFailureRatio == 0:
		c.MaxCrawlFailureRatio = 0.25
	case c.MaxCrawlFailureRatio < 0:
		c.MaxCrawlFailureRatio = 1 // ratios never exceed 1: never fail
	}
	return c
}

// BuildReport records what happened during a Build.
type BuildReport struct {
	// Crawl summarizes the NVD crawl, including retry/quarantine accounting.
	Crawl nvd.CrawlStats
	// Degraded reports a crawl that quarantined some downloads but stayed
	// within MaxCrawlFailureRatio: the dataset is complete except for the
	// patches listed in Crawl.Quarantine.
	Degraded bool
	// Rounds is the per-round augmentation accounting (Table II), including
	// each round's nearest-link search time and engine stats.
	Rounds []AugmentRound
	// Search aggregates the nearest-link engine accounting across all
	// augmentation rounds: distance evaluations, pruned fraction, heap
	// activity, and total search wall-clock.
	Search NearestLinkTotals
	// HumanVerifications counts simulated manual inspections.
	HumanVerifications int
	// ResumedFrom names the checkpoint stage this build resumed from — the
	// last completed stage in the journal — or "" for a from-scratch run.
	ResumedFrom string
	// Stages is the per-stage wall-clock and item accounting of the run,
	// in pipeline order.
	Stages []StageStat
	// Run is the unified telemetry artifact of the build: stage timings,
	// crawl and nearest-link accounting, the metrics-registry snapshot, and
	// the buffered trace spans.
	Run *telemetry.RunReport
}

// Build runs the full PatchDB pipeline against a simulated world: it
// generates the corpus (repositories + commits), serves an NVD feed over
// loopback HTTP, crawls it, augments the dataset with nearest link search
// and (simulated) human verification, and synthesizes patch variants.
//
// The crawl's fetch stage, per-commit feature extraction, and the nearest
// link search all run on worker pools bounded by cfg.Workers; the resulting
// dataset is a pure function of cfg.Seed regardless of the worker count.
// ctx is honored across every stage: cancellation aborts the crawl, the
// extraction pools, augmentation rounds, and synthesis with a wrapped
// context error.
//
// The returned dataset mirrors the paper's structure: NVD-based, wild-based,
// cleaned non-security, and synthetic components.
//
// With CheckpointDir set, Build journals its state at every stage boundary
// (internal/checkpoint) and, with Resume, skips stages the journal already
// holds — the resumed dataset is bit-identical to an uninterrupted run's.
func Build(ctx context.Context, cfg BuilderConfig) (*Dataset, *BuildReport, error) {
	if len(cfg.RoundsPerPool) != 0 && len(cfg.WildPools) != 0 &&
		len(cfg.RoundsPerPool) != len(cfg.WildPools) {
		return nil, nil, fmt.Errorf("build: RoundsPerPool has %d entries for %d wild pools",
			len(cfg.RoundsPerPool), len(cfg.WildPools))
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, nil, fmt.Errorf("build: Resume requires CheckpointDir")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 9000))
	hub := cfg.Telemetry
	if hub == nil {
		hub = telemetry.NewHub()
	}
	ctx = telemetry.WithHub(ctx, hub)
	ctx, buildSpan := telemetry.Start(ctx, "build")
	defer buildSpan.End()
	metrics := pipeline.NewMetrics(hub.Registry)

	// The checkpoint journal (nil when CheckpointDir is unset). The plan
	// fixes stage names up front; the fingerprint binds the journal to every
	// output-affecting config field so Resume refuses a mismatched config.
	plan := stagePlan(cfg)
	planIdx := make(map[string]int, len(plan))
	for i, s := range plan {
		planIdx[s] = i
	}
	var jr *checkpoint.Journal
	if cfg.CheckpointDir != "" {
		fp, err := checkpoint.Fingerprint(fingerprintOf(cfg))
		if err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		jr, err = checkpoint.Open(cfg.CheckpointDir, checkpoint.Options{
			Seed:        cfg.Seed,
			Fingerprint: fp,
			Resume:      cfg.Resume,
			Fault:       cfg.CheckpointFault,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
	}

	// Every stage is timed by the span that traces it: its End reading is
	// the duration the stage accounting records.
	_, genSpan := telemetry.Start(ctx, "generate")
	gen := corpus.NewGenerator(corpus.Config{Seed: cfg.Seed})
	nvdCommits := gen.GenerateNVD(cfg.NVDSize)
	nonSec := gen.GenerateNonSecurity(cfg.NonSecuritySize)
	generated := len(nvdCommits) + len(nonSec)
	pools := make([][]*corpus.LabeledCommit, len(cfg.WildPools))
	for i, n := range cfg.WildPools {
		pools[i] = gen.GenerateWild(n)
		generated += len(pools[i])
	}
	genSpan.SetAttr("items", generated)
	metrics.Observe(StageGenerate, genSpan.End(), generated)

	// Ground-truth labels for the verification oracle.
	labels := make(map[string]bool)
	byHash := make(map[string]*corpus.LabeledCommit)
	for _, set := range append([][]*corpus.LabeledCommit{nvdCommits, nonSec}, pools...) {
		for _, lc := range set {
			labels[lc.Commit.Hash] = lc.Security
			byHash[lc.Commit.Hash] = lc
		}
	}
	verifier := oracle.New(labels, oracle.WithSeed(cfg.Seed))

	report := &BuildReport{}
	ds := &Dataset{}
	var seedFeatures [][]float64
	var crawled []*nvd.CrawledPatch
	round := 1

	// Resume: load the last completed stage's cumulative state and restore
	// everything downstream stages read — dataset, crawl stats (including
	// the quarantine list and Degraded verdict), seed features, round
	// accounting, and the oracle's inspection counter.
	resumeIdx := -1
	if jr != nil && cfg.Resume {
		if last := jr.LastCompleted(); last != "" {
			idx, ok := planIdx[last]
			if !ok {
				return nil, nil, fmt.Errorf("build: resume: journaled stage %q is not in this build's plan", last)
			}
			var st buildState
			if err := jr.Load(ctx, last, &st); err != nil {
				return nil, nil, fmt.Errorf("build: resume: %w", err)
			}
			resumeIdx = idx
			report.ResumedFrom = last
			report.Crawl = st.Crawl
			report.Degraded = st.Degraded
			report.Rounds = st.Rounds
			if st.Dataset != nil {
				ds = st.Dataset
			}
			seedFeatures = st.SeedFeatures
			round = st.NextRound
			verifier.SetInspected(st.HumanVerifications)
			if len(st.Crawled) > 0 {
				restored, err := nvd.RestorePatches(st.Crawled)
				if err != nil {
					return nil, nil, fmt.Errorf("build: resume: %w", err)
				}
				crawled = restored
			}
		}
	}
	// stageDone reports whether the journal already holds this stage's
	// output (always false without Resume).
	stageDone := func(stage string) bool {
		idx, ok := planIdx[stage]
		return ok && idx <= resumeIdx
	}
	var ckptNotify *pipeline.Notifier
	if jr != nil {
		ckptNotify = pipeline.NewNotifier(StageCheckpoint, len(plan), cfg.Progress)
	}
	// writeCkpt journals the build's cumulative state at a stage boundary.
	// An injected CheckpointFault surfaces here as ErrInjectedCrash.
	writeCkpt := func(stage string) error {
		if jr == nil {
			return nil
		}
		_, ckptSpan := telemetry.Start(ctx, "checkpoint")
		ckptSpan.SetAttr("stage", stage)
		err := jr.Write(ctx, stage, buildState{
			Stage:              stage,
			Dataset:            ds,
			Crawl:              report.Crawl,
			Degraded:           report.Degraded,
			Crawled:            nvd.SavePatches(crawled),
			SeedFeatures:       seedFeatures,
			Rounds:             report.Rounds,
			HumanVerifications: verifier.Inspected(),
			NextRound:          round,
		})
		metrics.Observe(StageCheckpoint, ckptSpan.End(), 1)
		if err != nil {
			return fmt.Errorf("build: checkpoint stage %q: %w", stage, err)
		}
		ckptNotify.Done(1)
		return nil
	}

	noiseCount := int(float64(cfg.NVDSize) * cfg.FeedNoise)
	if stageDone(ckptStageCrawl) {
		jr.NoteSkip(ctx, ckptStageCrawl)
		// Burn the feed's rng draws so later rng consumers see the same
		// stream an uninterrupted build would.
		seedFeed(nil, "", nvdCommits, noiseCount, rng)
	} else {
		// Serve the NVD and crawl it, exercising the real HTTP code path.
		// With FaultRate set, the service is wrapped in the
		// seed-deterministic fault injector so the crawl's resilience
		// machinery is exercised end to end. The service's lifetime is the
		// crawl: a closure scopes the Close.
		if err := func() error {
			svc := nvd.NewService(gen.Store())
			if cfg.FaultRate > 0 {
				svc.Wrap = faults.New(faults.Config{
					Seed:       cfg.Seed,
					Routes:     []faults.Route{{Rate: cfg.FaultRate}},
					RetryAfter: 20 * time.Millisecond,
					HangFor:    25 * time.Millisecond,
					Registry:   hub.Registry,
				}).Wrap
			}
			baseURL, err := svc.Start()
			if err != nil {
				return err
			}
			defer svc.Close()
			seedFeed(svc, baseURL, nvdCommits, noiseCount, rng)
			crawler := &nvd.Crawler{
				BaseURL:     baseURL,
				Concurrency: cfg.Workers,
				Seed:        cfg.Seed,
				MaxAttempts: cfg.MaxRetries + 1,
				// The upstream is loopback: short backoff keeps
				// fault-injected builds fast while still exercising the
				// schedule.
				RetryBaseDelay: 10 * time.Millisecond,
				RetryMaxDelay:  250 * time.Millisecond,
			}
			if cfg.Progress != nil {
				crawler.Progress = func(done, total int) {
					cfg.Progress(StageCrawl, done, total)
				}
			}
			crawlCtx, crawlSpan := telemetry.Start(ctx, "crawl")
			crawled, report.Crawl, err = crawler.Crawl(crawlCtx)
			elapsed := crawlSpan.End()
			if err != nil {
				return fmt.Errorf("crawl: %w", err)
			}
			metrics.Observe(StageCrawl, elapsed, report.Crawl.Downloaded)
			// Graceful degradation: quarantined downloads within the
			// threshold are a warning (Degraded); beyond it the build fails
			// rather than silently shipping a hollowed-out dataset.
			if total := report.Crawl.Downloaded + report.Crawl.Errors; total > 0 && report.Crawl.Errors > 0 {
				ratio := float64(report.Crawl.Errors) / float64(total)
				if ratio > cfg.MaxCrawlFailureRatio {
					return fmt.Errorf("crawl degraded beyond threshold: %d/%d downloads quarantined (%.1f%% > %.1f%%)",
						report.Crawl.Errors, total, 100*ratio, 100*cfg.MaxCrawlFailureRatio)
				}
				report.Degraded = true
			}
			return nil
		}(); err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		// The checkpoint lands after the threshold check: a build that
		// failed it must re-crawl on the next attempt, not resume into a
		// hollowed-out dataset.
		if err := writeCkpt(ckptStageCrawl); err != nil {
			return nil, nil, err
		}
	}

	// Total extraction workload: the crawled seed plus every pool commit
	// still to be processed (resumed stages extract nothing).
	extractTotal := len(crawled)
	for i, pool := range pools {
		if !stageDone(ckptStageAugment(i)) {
			extractTotal += len(pool)
		}
	}
	extractNotify := pipeline.NewNotifier(StageExtract, extractTotal, cfg.Progress)

	if stageDone(ckptStageSeed) {
		jr.NoteSkip(ctx, ckptStageSeed)
	} else {
		// NVD-based dataset from the crawled patches; feature extraction
		// runs on the worker pool, record assembly stays in feed order.
		_, seedSpan := telemetry.Start(ctx, "extract.seed")
		seedSpan.SetAttr("items", len(crawled))
		crawledFeatures, err := mapConcurrently(ctx, len(crawled), cfg.Workers, extractNotify,
			func(i int) []float64 { return features.Extract(crawled[i].Patch, 0) })
		elapsed := seedSpan.End()
		if err != nil {
			return nil, nil, fmt.Errorf("build: extract nvd features: %w", err)
		}
		metrics.Observe(StageExtract, elapsed, len(crawled))
		seedFeatures = make([][]float64, 0, len(crawled))
		for i, cp := range crawled {
			lc, ok := byHash[cp.Hash]
			if !ok {
				continue
			}
			ds.NVD = append(ds.NVD, Record{
				ID: cp.Hash, Repo: cp.Repo, CVE: cp.CVE, Security: true,
				Pattern: lc.Pattern, Source: "nvd", Text: diff.Format(cp.Patch),
			})
			seedFeatures = append(seedFeatures, crawledFeatures[i])
		}

		// Initial cleaned non-security dataset.
		for _, lc := range nonSec {
			ds.NonSecurity = append(ds.NonSecurity, Record{
				ID: lc.Commit.Hash, Repo: lc.Commit.Repo, Security: false,
				Source: "wild", Text: diff.Format(lc.Commit.Patch()),
			})
		}
		// The crawl output is folded into the dataset now; later
		// checkpoints journal it empty.
		crawled = nil
		if err := writeCkpt(ckptStageSeed); err != nil {
			return nil, nil, err
		}
	}

	// Wild-based dataset via augmentation rounds.
	totalRounds := 0
	for _, r := range cfg.RoundsPerPool {
		totalRounds += r
	}
	augmentNotify := pipeline.NewNotifier(StageAugment, totalRounds, cfg.Progress)
	for i, pool := range pools {
		if stageDone(ckptStageAugment(i)) {
			jr.NoteSkip(ctx, ckptStageAugment(i))
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("build: canceled before pool %d: %w", i+1, err)
		}
		_, poolSpan := telemetry.Start(ctx, "extract.pool")
		poolSpan.SetAttr("pool", i+1)
		poolSpan.SetAttr("items", len(pool))
		poolFeatures, err := mapConcurrently(ctx, len(pool), cfg.Workers, extractNotify,
			func(j int) []float64 { return features.Extract(pool[j].Commit.Patch(), 0) })
		elapsed := poolSpan.End()
		if err != nil {
			return nil, nil, fmt.Errorf("build: extract pool %d features: %w", i+1, err)
		}
		metrics.Observe(StageExtract, elapsed, len(pool))
		items := make([]augment.Item, len(pool))
		for j, lc := range pool {
			items[j] = augment.Item{ID: lc.Commit.Hash, Features: poolFeatures[j]}
		}

		// The rounds' nearestlink.search spans nest under the pool's span.
		augCtx, augSpan := telemetry.Start(ctx, "augment.pool")
		augSpan.SetAttr("pool", i+1)
		res, err := augment.Run(augCtx, seedFeatures, items, verifier, round, augment.Config{
			MaxRounds:      cfg.RoundsPerPool[i],
			RatioThreshold: cfg.RatioThreshold,
			Workers:        cfg.Workers,
		})
		if err != nil {
			augSpan.End()
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		augSpan.SetAttr("rounds", len(res.Rounds))
		metrics.Observe(StageAugment, augSpan.End(), len(res.Rounds))
		for _, r := range res.Rounds {
			metrics.Observe(StageSearch, r.Search.Duration, r.SearchRange)
		}
		augmentNotify.Done(len(res.Rounds))
		report.Rounds = append(report.Rounds, res.Rounds...)
		round += len(res.Rounds)
		seedFeatures = res.SeedFeatures
		for _, id := range res.SecurityIDs {
			lc := byHash[id]
			ds.Wild = append(ds.Wild, Record{
				ID: id, Repo: lc.Commit.Repo, Security: true,
				Pattern: lc.Pattern, Source: "wild", Text: diff.Format(lc.Commit.Patch()),
			})
		}
		for _, id := range res.NonSecurityIDs {
			lc := byHash[id]
			ds.NonSecurity = append(ds.NonSecurity, Record{
				ID: id, Repo: lc.Commit.Repo, Security: false,
				Source: "wild", Text: diff.Format(lc.Commit.Patch()),
			})
		}
		if err := writeCkpt(ckptStageAugment(i)); err != nil {
			return nil, nil, err
		}
	}
	report.HumanVerifications = verifier.Inspected()

	// Synthetic dataset via source-level oversampling.
	if cfg.SyntheticPerPatch > 0 && stageDone(ckptStageOversample) {
		jr.NoteSkip(ctx, ckptStageOversample)
	} else if cfg.SyntheticPerPatch > 0 {
		// The NVD, wild and non-security records form one index space in
		// the order their shuffles draw from rng.
		recs := slices.Concat(ds.NVD, ds.Wild, ds.NonSecurity)
		nSecurity := len(ds.NVD) + len(ds.Wild)
		synthNotify := pipeline.NewNotifier(StageSynthesize, len(recs), cfg.Progress)
		synthCtx, synthSpan := telemetry.Start(ctx, "synthesize")
		defer synthSpan.End()
		ov := &oversample.Oversampler{MaxPerPatch: cfg.SyntheticPerPatch, Rand: rng}
		synthetic := make([][]Record, len(recs))
		err := ov.SynthesizeBatch(synthCtx, len(recs), cfg.Workers, func(i int) oversample.Job {
			lc, ok := byHash[recs[i].ID]
			if !ok {
				return oversample.Job{} // no files: no variants and no draws
			}
			return oversample.Job{Hash: lc.Commit.Hash, Before: lc.Commit.Before, After: lc.Commit.After}
		}, func(i int, syns []*oversample.Synthetic) {
			r := recs[i]
			for _, s := range syns {
				synthetic[i] = append(synthetic[i], Record{
					ID: s.Patch.Commit, Repo: r.Repo, Security: i < nSecurity,
					Pattern: r.Pattern, Source: "synthetic", Text: diff.Format(s.Patch),
				})
			}
			synthNotify.Done(1)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("build: synthesize: %w", err)
		}
		ds.Synthetic = slices.Concat(synthetic...)
		synthSpan.SetAttr("items", len(ds.Synthetic))
		metrics.Observe(StageSynthesize, synthSpan.End(), len(ds.Synthetic))
		if err := writeCkpt(ckptStageOversample); err != nil {
			return nil, nil, err
		}
	}
	// The engine totals are the sum of each round's Search, journaled
	// rounds included.
	for _, r := range report.Rounds {
		report.Search.Add(r.Search)
	}
	report.Stages = metrics.Snapshot()
	buildSpan.End()
	report.Run = buildRunReport(hub, report)
	if cfg.TelemetryOut != "" {
		if err := report.Run.WriteFile(cfg.TelemetryOut); err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
	}
	return ds, report, nil
}

// buildRunReport assembles the unified telemetry artifact of a finished
// build: stage timings, crawl and nearest-link accounting, the registry
// snapshot, and the trace buffer.
func buildRunReport(hub *telemetry.Hub, report *BuildReport) *telemetry.RunReport {
	rr := telemetry.NewRunReport("patchdb.Build", hub)
	rr.Stages = pipeline.StageReports(report.Stages)
	rr.Crawl = &telemetry.CrawlReport{
		Entries:         report.Crawl.Entries,
		WithPatchRefs:   report.Crawl.WithPatchRefs,
		Downloaded:      report.Crawl.Downloaded,
		EmptyAfterClean: report.Crawl.EmptyAfterClean,
		Retries:         report.Crawl.Retries,
		Quarantined:     report.Crawl.Errors,
		BreakerTrips:    report.Crawl.BreakerTrips,
		Degraded:        report.Degraded,
	}
	rr.Search = &telemetry.SearchReport{
		Searches:       report.Search.Searches,
		DistanceEvals:  report.Search.DistanceEvals,
		NormPruned:     report.Search.NormPruned,
		EarlyExited:    report.Search.EarlyExited,
		PrunedFraction: report.Search.PrunedFraction(),
		HeapPops:       report.Search.HeapPops,
		SecondBestHits: report.Search.SecondBestHits,
		Rescans:        report.Search.Rescans,
		DurationNS:     report.Search.Duration.Nanoseconds(),
	}
	return rr
}

// mapConcurrently computes fn(i) for i in [0, n) on workers goroutines,
// returning the results indexed by i — the output is deterministic for any
// worker count. It stops early (returning a wrapped context error) when ctx
// is canceled, and reports per-item completion to notify; items skipped by
// a cancellation are reported too, so progress reaches the total.
func mapConcurrently[T any](ctx context.Context, n, workers int, notify *pipeline.Notifier, fn func(int) T) ([]T, error) {
	out := make([]T, n)
	var ran atomic.Int64
	err := par.For(ctx, n, workers, func(_, i int) {
		out[i] = fn(i)
		ran.Add(1)
		notify.Done(1)
	})
	if err != nil {
		notify.Done(n - int(ran.Load()))
		return nil, err
	}
	return out, nil
}

func pickSeverity(rng *rand.Rand) string {
	return []string{"LOW", "MEDIUM", "HIGH", "CRITICAL"}[rng.Intn(4)]
}
