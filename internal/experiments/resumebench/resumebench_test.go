package resumebench

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"patchdb"
)

// scratch runs (and caches per-config) the uninterrupted reference build.
func scratch(t *testing.T, cfg patchdb.BuilderConfig) (*patchdb.Dataset, *patchdb.BuildReport) {
	t.Helper()
	ds, report, err := FromScratch(context.Background(), cfg)
	if err != nil {
		t.Fatalf("from-scratch build: %v", err)
	}
	return ds, report
}

func assertSameBuild(t *testing.T, wantDS *patchdb.Dataset, wantReport *patchdb.BuildReport, ds *patchdb.Dataset, report *patchdb.BuildReport) {
	t.Helper()
	if ok, diag := Identical(wantDS, ds); !ok {
		t.Errorf("resumed dataset not bit-identical to from-scratch build: %s", diag)
	}
	if d := ReportDivergence(wantReport, report); d != "" {
		t.Errorf("resumed report diverges from from-scratch build: %s", d)
	}
}

// TestKillAfterWriteEveryStageEveryWorkerCount is the core property: for
// every checkpoint stage boundary and workers ∈ {1, 2, 8}, a build killed
// right after that stage's checkpoint write and then resumed produces a
// dataset bit-identical to an uninterrupted from-scratch build.
func TestKillAfterWriteEveryStageEveryWorkerCount(t *testing.T) {
	base := BaseConfig()
	plan := patchdb.CheckpointPlan(base)
	if len(plan) != 5 { // crawl, seed, augment-1, augment-2, oversample
		t.Fatalf("plan = %v, want 5 stages — BaseConfig no longer covers every boundary", plan)
	}
	refCfg := base
	refCfg.Workers = 2
	wantDS, wantReport := scratch(t, refCfg)

	for _, stage := range plan {
		for _, w := range []int{1, 2, 8} {
			stage, w := stage, w
			t.Run(fmt.Sprintf("%s/workers-%d", stage, w), func(t *testing.T) {
				t.Parallel()
				cfg := base
				cfg.Workers = w
				ds, report, err := KillAndResume(context.Background(), cfg, t.TempDir(),
					patchdb.CheckpointFault{Stage: stage, Mode: patchdb.FaultAfterWrite}, w)
				if err != nil {
					t.Fatal(err)
				}
				if report.ResumedFrom != stage {
					t.Errorf("ResumedFrom = %q, want %q (after-write kill journals the stage)",
						report.ResumedFrom, stage)
				}
				assertSameBuild(t, wantDS, wantReport, ds, report)
			})
		}
	}
}

// TestKillBeforeWriteEveryStage covers the other crash placement: the stage's
// work finished but its checkpoint write was lost, so resume must re-run the
// stage — and still converge on the identical dataset.
func TestKillBeforeWriteEveryStage(t *testing.T) {
	base := BaseConfig()
	plan := patchdb.CheckpointPlan(base)
	refCfg := base
	refCfg.Workers = 2
	wantDS, wantReport := scratch(t, refCfg)

	for i, stage := range plan {
		i, stage := i, stage
		t.Run(stage, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.Workers = 2
			ds, report, err := KillAndResume(context.Background(), cfg, t.TempDir(),
				patchdb.CheckpointFault{Stage: stage, Mode: patchdb.FaultBeforeWrite}, 2)
			if err != nil {
				t.Fatal(err)
			}
			wantFrom := "" // crawl's checkpoint lost → the journal is empty
			if i > 0 {
				wantFrom = plan[i-1]
			}
			if report.ResumedFrom != wantFrom {
				t.Errorf("ResumedFrom = %q, want %q (before-write kill loses the stage)",
					report.ResumedFrom, wantFrom)
			}
			assertSameBuild(t, wantDS, wantReport, ds, report)
		})
	}
}

// TestCrossWorkerResume kills a single-worker build and resumes it on eight
// workers: the journal carries no worker count, and output is
// worker-invariant, so the result must still be bit-identical.
func TestCrossWorkerResume(t *testing.T) {
	base := BaseConfig()
	refCfg := base
	refCfg.Workers = 2
	wantDS, wantReport := scratch(t, refCfg)

	cfg := base
	cfg.Workers = 1
	ds, report, err := KillAndResume(context.Background(), cfg, t.TempDir(),
		patchdb.CheckpointFault{Stage: "augment-1", Mode: patchdb.FaultAfterWrite}, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBuild(t, wantDS, wantReport, ds, report)
}

// TestQuarantineStateRoundTrip kills a fault-injected crawl right after its
// checkpoint and resumes: the resumed build must report the same quarantine
// list and the same Degraded verdict as an uninterrupted chaos run, without
// re-crawling.
func TestQuarantineStateRoundTrip(t *testing.T) {
	cfg := BaseConfig()
	cfg.FaultRate = 0.25
	cfg.MaxRetries = 1
	cfg.MaxCrawlFailureRatio = -1 // never fail: quarantine is reported, build proceeds
	cfg.Workers = 2

	wantDS, wantReport := scratch(t, cfg)
	if len(wantReport.Crawl.Quarantine) == 0 {
		t.Fatal("reference chaos build quarantined nothing — raise FaultRate so the round trip is exercised")
	}
	if !wantReport.Degraded {
		t.Fatal("reference chaos build not Degraded")
	}

	ds, report, err := KillAndResume(context.Background(), cfg, t.TempDir(),
		patchdb.CheckpointFault{Stage: "crawl", Mode: patchdb.FaultAfterWrite}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.ResumedFrom != "crawl" {
		t.Fatalf("ResumedFrom = %q, want crawl", report.ResumedFrom)
	}
	if !report.Degraded {
		t.Error("resumed build lost the Degraded verdict")
	}
	assertSameBuild(t, wantDS, wantReport, ds, report)
}

// TestResumeRefusesMismatchedConfig proves the fingerprint guard: a journal
// written under one config cannot be resumed under a config that would
// change build output.
func TestResumeRefusesMismatchedConfig(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := BaseConfig()
	cfg.Workers = 2
	killed := cfg
	killed.CheckpointDir = dir
	killed.CheckpointFault = &patchdb.CheckpointFault{Stage: "seed", Mode: patchdb.FaultAfterWrite}
	if _, _, err := patchdb.Build(ctx, killed); !errors.Is(err, patchdb.ErrInjectedCrash) {
		t.Fatalf("killed build: %v", err)
	}

	mutations := map[string]func(*patchdb.BuilderConfig){
		"nvd-size":  func(c *patchdb.BuilderConfig) { c.NVDSize = 61 },
		"seed":      func(c *patchdb.BuilderConfig) { c.Seed = 8 },
		"pools":     func(c *patchdb.BuilderConfig) { c.WildPools = []int{250, 300} },
		"synthetic": func(c *patchdb.BuilderConfig) { c.SyntheticPerPatch = 3 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			bad := cfg
			bad.CheckpointDir = dir
			bad.Resume = true
			mutate(&bad)
			if _, _, err := patchdb.Build(ctx, bad); !errors.Is(err, patchdb.ErrCheckpointMismatch) {
				t.Errorf("Build with mutated %s: err = %v, want ErrCheckpointMismatch", name, err)
			}
		})
	}
}

func TestResumeRequiresCheckpointDir(t *testing.T) {
	cfg := BaseConfig()
	cfg.Resume = true
	if _, _, err := patchdb.Build(context.Background(), cfg); err == nil {
		t.Fatal("Resume without CheckpointDir succeeded")
	}
}
