package patchdb

import (
	"fmt"
	"math/rand"

	"patchdb/internal/checkpoint"
	"patchdb/internal/corpus"
	"patchdb/internal/nvd"
)

// CheckpointFault injects a deterministic crash at one checkpoint stage
// boundary — the chaos-testing knob behind the kill-and-resume matrix (see
// internal/experiments/resumebench).
type CheckpointFault = checkpoint.Fault

// Placement of an injected checkpoint crash relative to the journal write.
const (
	// FaultAfterWrite crashes after the stage is durably journaled: resume
	// must skip the stage.
	FaultAfterWrite = checkpoint.FaultAfterWrite
	// FaultBeforeWrite crashes after the stage's work but before its journal
	// write: the stage's output is lost and resume must re-run it.
	FaultBeforeWrite = checkpoint.FaultBeforeWrite
)

// Canonical checkpoint errors, re-exported so callers can match them with
// errors.Is without importing internal packages.
var (
	// ErrCheckpointMismatch reports a Resume against a journal written under
	// a different seed or config fingerprint (or journal format version).
	ErrCheckpointMismatch = checkpoint.ErrConfigMismatch
	// ErrInjectedCrash is the deterministic crash a CheckpointFault injects;
	// it stands in for a SIGKILL in the resume matrix.
	ErrInjectedCrash = checkpoint.ErrInjectedCrash
)

// The checkpoint stage names Build journals, in plan order.
const (
	ckptStageCrawl      = "crawl"
	ckptStageSeed       = "seed"
	ckptStageOversample = "oversample"
)

// ckptStageAugment names pool i's augmentation checkpoint ("augment-1"...).
func ckptStageAugment(pool int) string { return fmt.Sprintf("augment-%d", pool+1) }

// stagePlan returns the checkpoint stages a Build with this (post-defaults)
// config passes through, in order.
func stagePlan(cfg BuilderConfig) []string {
	plan := []string{ckptStageCrawl, ckptStageSeed}
	for i := range cfg.WildPools {
		plan = append(plan, ckptStageAugment(i))
	}
	if cfg.SyntheticPerPatch > 0 {
		plan = append(plan, ckptStageOversample)
	}
	return plan
}

// CheckpointPlan returns the checkpoint stage names a Build with this config
// would journal, in execution order — the stages a CheckpointFault can
// target.
func CheckpointPlan(cfg BuilderConfig) []string {
	return stagePlan(cfg.withDefaults())
}

// buildFingerprint is the canonical identity of every config field that can
// change build output, computed post-withDefaults so spelled-out and
// defaulted configs fingerprint identically. Workers is deliberately absent:
// output is worker-invariant, so a journal written at -workers 1 resumes at
// -workers 8.
type buildFingerprint struct {
	Seed                 int64   `json:"seed"`
	NVDSize              int     `json:"nvd_size"`
	NonSecuritySize      int     `json:"non_security_size"`
	WildPools            []int   `json:"wild_pools"`
	RoundsPerPool        []int   `json:"rounds_per_pool"`
	SyntheticPerPatch    int     `json:"synthetic_per_patch"`
	FeedNoise            float64 `json:"feed_noise"`
	RatioThreshold       float64 `json:"ratio_threshold"`
	FaultRate            float64 `json:"fault_rate"`
	MaxRetries           int     `json:"max_retries"`
	MaxCrawlFailureRatio float64 `json:"max_crawl_failure_ratio"`
}

func fingerprintOf(cfg BuilderConfig) buildFingerprint {
	return buildFingerprint{
		Seed:                 cfg.Seed,
		NVDSize:              cfg.NVDSize,
		NonSecuritySize:      cfg.NonSecuritySize,
		WildPools:            cfg.WildPools,
		RoundsPerPool:        cfg.RoundsPerPool,
		SyntheticPerPatch:    cfg.SyntheticPerPatch,
		FeedNoise:            cfg.FeedNoise,
		RatioThreshold:       cfg.RatioThreshold,
		FaultRate:            cfg.FaultRate,
		MaxRetries:           cfg.MaxRetries,
		MaxCrawlFailureRatio: cfg.MaxCrawlFailureRatio,
	}
}

// buildState is the complete resumable state of a Build at one stage
// boundary — the journal payload. Each checkpoint holds the cumulative state,
// so resume loads only the last completed stage and never composes deltas.
type buildState struct {
	// Stage names the boundary this state was captured at.
	Stage string `json:"stage"`
	// Dataset is the dataset assembled so far.
	Dataset *Dataset `json:"dataset"`
	// Crawl and Degraded mirror the BuildReport fields, so a resumed build
	// reports the same crawl accounting and degradation verdict (including
	// the quarantine list) as the run that was killed.
	Crawl    nvd.CrawlStats `json:"crawl"`
	Degraded bool           `json:"degraded"`
	// Crawled carries the crawl output until the seed stage folds it into
	// the dataset; later checkpoints journal it empty.
	Crawled []nvd.SavedPatch `json:"crawled,omitempty"`
	// SeedFeatures is the verified-security feature set the next
	// augmentation round searches from.
	SeedFeatures [][]float64 `json:"seed_features,omitempty"`
	// Rounds is the augmentation accounting accumulated so far.
	Rounds []AugmentRound `json:"rounds,omitempty"`
	// HumanVerifications restores the oracle's inspection counter.
	HumanVerifications int `json:"human_verifications"`
	// NextRound is the 1-based global round number the next pool starts at.
	NextRound int `json:"next_round"`
}

// seedFeed populates the NVD service's feed: one entry per generated CVE
// commit plus noiseCount entries without usable patch links (the NVD's
// missing references). The rng draws — a severity per commit, a CVE year per
// noise entry — are consumed even when svc is nil: a resumed build that
// skips the crawl must leave the shared rng in exactly the state an
// uninterrupted build would, or every later rng-consuming stage
// (oversampling) would diverge and break bit-identical resume.
func seedFeed(svc *nvd.Service, baseURL string, nvdCommits []*corpus.LabeledCommit, noiseCount int, rng *rand.Rand) {
	for _, lc := range nvdCommits {
		severity := pickSeverity(rng)
		if svc == nil {
			continue
		}
		svc.AddEntry(nvd.Entry{
			ID:          lc.CVE,
			Description: lc.Commit.Message,
			Published:   lc.Commit.Date,
			Severity:    severity,
			References: []nvd.Reference{{
				URL:  nvd.GitHubCommitURL(baseURL, lc.Commit.Repo, lc.Commit.Hash),
				Tags: []string{"Patch", "Third Party Advisory"},
			}},
		})
	}
	for i := 0; i < noiseCount; i++ {
		year := 2002 + rng.Intn(18)
		if svc == nil {
			continue
		}
		svc.AddEntry(nvd.Entry{
			ID:          fmt.Sprintf("CVE-%d-%05d", year, 90000+i),
			Description: "vulnerability without patch reference",
			References: []nvd.Reference{{
				URL:  "https://advisories.example.com/a/" + fmt.Sprint(i),
				Tags: []string{"Vendor Advisory"},
			}},
		})
	}
}
