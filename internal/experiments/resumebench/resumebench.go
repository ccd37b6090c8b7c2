// Package resumebench is the kill-and-resume chaos harness behind `make
// verify-resume`: it proves the checkpoint journal's crash-safety property
// end to end. For every checkpoint stage boundary, a build is forcibly
// aborted by a deterministic injected crash (patchdb.CheckpointFault), then
// resumed from its journal, and the resumed dataset is asserted bit-identical
// to an uninterrupted from-scratch build — at worker counts 1, 2, and 8, and
// across worker counts (killed at one, resumed at another). It lives beside
// servebench because it depends on the root patchdb package, which
// internal/experiments proper cannot import without a cycle.
package resumebench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"

	"patchdb"
)

// BaseConfig is the harness's build shape: small enough that the full
// kill-and-resume matrix stays fast, large enough that every stage does real
// work (two wild pools → two augmentation checkpoints, synthesis enabled →
// an oversample checkpoint, feed noise on by default).
func BaseConfig() patchdb.BuilderConfig {
	return patchdb.BuilderConfig{
		Seed:              7,
		NVDSize:           60,
		NonSecuritySize:   120,
		WildPools:         []int{250, 250},
		RoundsPerPool:     []int{2, 1},
		SyntheticPerPatch: 2,
	}
}

// DatasetJSON renders a dataset exactly as SaveJSON would write it — the
// bytes the bit-identical property is stated over.
func DatasetJSON(ds *patchdb.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FromScratch runs an uninterrupted, checkpoint-free build — the reference
// the resumed builds are compared against.
func FromScratch(ctx context.Context, cfg patchdb.BuilderConfig) (*patchdb.Dataset, *patchdb.BuildReport, error) {
	cfg.CheckpointDir = ""
	cfg.Resume = false
	cfg.CheckpointFault = nil
	return patchdb.Build(ctx, cfg)
}

// KillAndResume simulates a crash at one stage boundary and recovers from
// it: it runs cfg with the journal in dir and the given fault injected — the
// build MUST die with patchdb.ErrInjectedCrash — then re-runs with Resume at
// resumeWorkers. It returns the resumed build's output.
func KillAndResume(ctx context.Context, cfg patchdb.BuilderConfig, dir string, fault patchdb.CheckpointFault, resumeWorkers int) (*patchdb.Dataset, *patchdb.BuildReport, error) {
	killed := cfg
	killed.CheckpointDir = dir
	killed.Resume = false
	killed.CheckpointFault = &fault
	if _, _, err := patchdb.Build(ctx, killed); !errors.Is(err, patchdb.ErrInjectedCrash) {
		// The wrong error (possibly nil) is the finding itself, not a chain
		// to preserve — callers match on the message, never errors.Is.
		//lint:ignore errcanon reporting a foreign error verbatim, not wrapping a chain
		return nil, nil, fmt.Errorf("killed build at stage %q (%s): err = %v, want ErrInjectedCrash", fault.Stage, fault.Mode, err)
	}

	resumed := cfg
	resumed.CheckpointDir = dir
	resumed.Resume = true
	resumed.CheckpointFault = nil
	resumed.Workers = resumeWorkers
	ds, report, err := patchdb.Build(ctx, resumed)
	if err != nil {
		return nil, nil, fmt.Errorf("resume after kill at stage %q (%s): %w", fault.Stage, fault.Mode, err)
	}
	return ds, report, nil
}

// Identical compares two datasets byte-for-byte in their serialized form. A
// non-empty diagnosis pinpoints the first divergence.
func Identical(a, b *patchdb.Dataset) (bool, string) {
	aj, err := DatasetJSON(a)
	if err != nil {
		return false, fmt.Sprintf("serialize a: %v", err)
	}
	bj, err := DatasetJSON(b)
	if err != nil {
		return false, fmt.Sprintf("serialize b: %v", err)
	}
	if bytes.Equal(aj, bj) {
		return true, ""
	}
	// Diagnose: component sizes first, then the byte offset.
	as, bs := a.Stats(), b.Stats()
	if as != bs {
		return false, fmt.Sprintf("component sizes diverge: %+v vs %+v", as, bs)
	}
	n := len(aj)
	if len(bj) < n {
		n = len(bj)
	}
	for i := 0; i < n; i++ {
		if aj[i] != bj[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return false, fmt.Sprintf("bytes diverge at offset %d: %q vs %q", i, aj[lo:i+1], bj[lo:i+1])
		}
	}
	return false, fmt.Sprintf("one serialization is a prefix of the other (%d vs %d bytes)", len(aj), len(bj))
}

// ReportDivergence compares the deterministic fields of two build reports —
// everything but wall-clock timings, stage accounting, and the telemetry
// artifact, which legitimately differ between a resumed and an uninterrupted
// run. An empty string means they agree.
func ReportDivergence(a, b *patchdb.BuildReport) string {
	if a.Degraded != b.Degraded {
		return fmt.Sprintf("Degraded: %v vs %v", a.Degraded, b.Degraded)
	}
	if a.HumanVerifications != b.HumanVerifications {
		return fmt.Sprintf("HumanVerifications: %d vs %d", a.HumanVerifications, b.HumanVerifications)
	}
	if d := crawlDivergence(a, b); d != "" {
		return d
	}
	if len(a.Rounds) != len(b.Rounds) {
		return fmt.Sprintf("rounds: %d vs %d", len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		ar, br := a.Rounds[i], b.Rounds[i]
		if ar.Round != br.Round || ar.SearchRange != br.SearchRange ||
			ar.Candidates != br.Candidates || ar.Verified != br.Verified || ar.Ratio != br.Ratio {
			return fmt.Sprintf("round %d accounting diverges: %+v vs %+v", i+1, ar, br)
		}
	}
	as, bs := a.Search, b.Search
	as.Duration, bs.Duration = 0, 0
	if as != bs {
		return fmt.Sprintf("search totals diverge: %+v vs %+v", as, bs)
	}
	return ""
}

// crawlDivergence compares crawl stats field by field, skipping BreakerTrips
// (documented as timing-dependent, outside the determinism contract).
func crawlDivergence(a, b *patchdb.BuildReport) string {
	ac, bc := a.Crawl, b.Crawl
	if ac.Entries != bc.Entries || ac.WithPatchRefs != bc.WithPatchRefs ||
		ac.Downloaded != bc.Downloaded || ac.EmptyAfterClean != bc.EmptyAfterClean ||
		ac.Errors != bc.Errors || ac.Retries != bc.Retries {
		return fmt.Sprintf("crawl counters diverge: %+v vs %+v", ac, bc)
	}
	if len(ac.Quarantine) != len(bc.Quarantine) {
		return fmt.Sprintf("quarantine length: %d vs %d", len(ac.Quarantine), len(bc.Quarantine))
	}
	for i := range ac.Quarantine {
		qa, qb := ac.Quarantine[i], bc.Quarantine[i]
		// The URL embeds the loopback service's ephemeral port, which
		// legitimately differs between two builds; compare the path.
		qa.URL = urlPath(qa.URL)
		qb.URL = urlPath(qb.URL)
		if qa != qb {
			return fmt.Sprintf("quarantine entry %d diverges: %+v vs %+v", i, qa, qb)
		}
	}
	return ""
}

func urlPath(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return raw
	}
	return u.Path
}
