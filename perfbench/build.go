package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"

	"patchdb"
	"patchdb/internal/telemetry"
)

// buildShape sizes the build workload (patchdb.Build's config).
type buildShape struct {
	NVD, NonSec int
	Pools       []int
	Rounds      []int
	Synthetic   int
}

// buildBench runs the dataset builder end to end: corpus generation, NVD
// crawl over loopback HTTP, feature extraction, nearest-link augmentation
// and oversampling, all inside one patchdb.Build call.
type buildBench struct {
	seed int64
	sh   buildShape
	last *patchdb.Dataset
}

func newBuildBench(cfg config) *buildBench {
	sh := buildShape{NVD: 200, NonSec: 400, Pools: []int{4000, 8000}, Rounds: []int{2, 1}, Synthetic: 2}
	if cfg.smoke {
		sh = buildShape{NVD: 30, NonSec: 60, Pools: []int{300, 300}, Rounds: []int{2, 1}, Synthetic: 2}
	}
	return &buildBench{seed: cfg.seed, sh: sh}
}

func (b *buildBench) shape() map[string]any {
	return map[string]any{"nvd": b.sh.NVD, "non_security": b.sh.NonSec, "pools": b.sh.Pools,
		"rounds": b.sh.Rounds, "synthetic_per_patch": b.sh.Synthetic, "workers": workers}
}

// prepare has nothing to do: Build generates its own inputs from the seed.
func (b *buildBench) prepare(*tracer) {}

func (b *buildBench) op(tr *tracer, root int) (map[string]float64, error) {
	// A quiet hub: Build's structured logs would otherwise go to stderr.
	hub := telemetry.NewHub()
	hub.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	var ds *patchdb.Dataset
	var rep *patchdb.BuildReport
	err := tr.call("build", root, func(id int) error {
		var err error
		ds, rep, err = patchdb.Build(context.Background(), patchdb.BuilderConfig{
			Seed: b.seed, NVDSize: b.sh.NVD, NonSecuritySize: b.sh.NonSec,
			WildPools: b.sh.Pools, RoundsPerPool: b.sh.Rounds,
			SyntheticPerPatch: b.sh.Synthetic, Workers: workers, Telemetry: hub,
		})
		if err != nil {
			return err
		}
		// The stage times are Build's own (BuildReport.Stages): the
		// benchmark adds nothing inside Build.
		stage := map[patchdb.Stage]int{}
		for i, s := range rep.Stages {
			stage[s.Stage] = i
		}
		for _, s := range []struct {
			stage patchdb.Stage
			name  string
		}{{patchdb.StageCrawl, "nvd"}, {patchdb.StageExtract, "features"}, {patchdb.StageSynthesize, "oversample"}} {
			if i, ok := stage[s.stage]; ok {
				tr.derived(s.name, id, rep.Stages[i].Duration)
			}
		}
		if i, ok := stage[patchdb.StageAugment]; ok {
			// The augment stage contains the rounds' searches.
			aug := tr.derived("augment", id, rep.Stages[i].Duration)
			tr.derived("nearestlink", aug, rep.Search.Duration)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.last = ds
	counts := map[string]float64{}
	searchCounts(rep.Search, counts)
	for _, s := range rep.Stages {
		if s.Stage == patchdb.StageExtract {
			counts["features.items"] = float64(s.Items)
		}
	}
	fetches := rep.Crawl.Downloaded + rep.Crawl.Errors + rep.Crawl.Retries
	counts["nvd.fetches"] = float64(fetches)
	if fetches > 0 {
		counts["nvd.retry_ratio"] = float64(rep.Crawl.Retries) / float64(fetches)
	}
	counts["augment.hit_ratio"] = hitRatio(rep.Rounds)
	counts["augment.verifications"] = float64(rep.HumanVerifications)
	st := ds.Stats()
	counts["oversample.variants"] = float64(st.Synthetic)
	if n := st.NVD + st.Wild + st.NonSecurity; n > 0 {
		counts["oversample.yield"] = float64(st.Synthetic) / float64(n)
	}
	return counts, nil
}

// digest hashes the built dataset's JSON encoding.
func (b *buildBench) digest() (string, error) {
	h := sha256.New()
	if err := b.last.WriteJSON(h); err != nil {
		return "", fmt.Errorf("write dataset: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkRun round-trips the last built dataset through its JSON form:
// LoadDataset must accept it and re-encode it byte for byte.
func (b *buildBench) checkRun() error {
	var a bytes.Buffer
	if err := b.last.WriteJSON(&a); err != nil {
		return fmt.Errorf("write dataset: %w", err)
	}
	back, err := patchdb.LoadDataset(bytes.NewReader(a.Bytes()))
	if err != nil {
		return fmt.Errorf("load dataset: %w", err)
	}
	var c bytes.Buffer
	if err := back.WriteJSON(&c); err != nil {
		return fmt.Errorf("rewrite dataset: %w", err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		return fmt.Errorf("dataset JSON does not round-trip (%d vs %d bytes)", a.Len(), c.Len())
	}
	if st := back.Stats(); st.NVD == 0 || st.Wild == 0 || st.NonSecurity == 0 || st.Synthetic == 0 {
		return fmt.Errorf("dataset has an empty component: %+v", st)
	}
	return nil
}

func (b *buildBench) layers(ops, _ perUnit, counts map[string]float64) map[string]float64 {
	m := map[string]float64{
		"nvd.busy_s":         ops.secs("nvd"),
		"features.busy_s":    ops.secs("features"),
		"nearestlink.busy_s": ops.secs("nearestlink"),
		"augment.self_s":     ops.secs("augment"),
		"oversample.busy_s":  ops.secs("oversample"),
	}
	copyCounts(counts, m)
	// Build's time outside its stages (corpus generation, record assembly)
	// is the build span's self time.
	m["build.other_s"] = ops.secs("build") + ops.secs("op")
	return m
}
