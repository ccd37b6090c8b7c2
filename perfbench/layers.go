package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/nearestlink"
	"patchdb/internal/corpus"
	"patchdb/internal/diff"
	"patchdb/internal/features"
)

// perLayerMetrics is every metric a traced run reports, with its unit. A
// workload that does not exercise a layer reports it as 0. Times are per
// op, except features.* on link and train, where extraction is set-up work:
// there they are per set-up.
var perLayerMetrics = []struct{ name, unit string }{
	{"features.busy_s", "s"},
	{"features.items", "count"},
	{"nvd.busy_s", "s"},
	{"nvd.fetches", "count"},
	{"nvd.retry_ratio", "ratio"},
	{"nearestlink.busy_s", "s"},
	{"nearestlink.distance_evals", "count"},
	{"nearestlink.norm_pruned", "count"},
	{"nearestlink.early_exited", "count"},
	{"nearestlink.pruned_fraction", "ratio"},
	{"nearestlink.heap_pops", "count"},
	{"nearestlink.second_best_hits", "count"},
	{"nearestlink.rescans", "count"},
	{"nearestlink.rescan_ratio", "ratio"},
	{"augment.self_s", "s"},
	{"augment.hit_ratio", "ratio"},
	{"augment.verifications", "count"},
	{"oversample.busy_s", "s"},
	{"oversample.variants", "count"},
	{"oversample.yield", "ratio"},
	{"linear.smo_fit_s", "s"},
	{"linear.fit_s", "s"},
	{"tree.fit_s", "s"},
	{"bayes.fit_s", "s"},
	{"baselines.predict_s", "s"},
	{"baselines.consensus", "count"},
	{"neural.fit_s", "s"},
	{"neural.steps", "count"},
	{"neural.us_per_step", "us"},
	{"neural.predict_s", "s"},
	{"neural.alloc_mb", "MB"},
	{"store.query_us", "us"},
	{"store.handler_us", "us"},
	{"http.self_us", "us"},
	{"store.reload_ms", "ms"},
	{"runtime.gc_s", "s"},
	{"build.other_s", "s"},
	{"link.other_s", "s"},
	{"train.other_s", "s"},
	{"serve.other_s", "s"},
	{"trace.overhead_pct", "%"},
}

// searchCounts maps nearest-link engine totals onto their metric names.
func searchCounts(t nearestlink.Totals, into map[string]float64) {
	into["nearestlink.distance_evals"] = float64(t.DistanceEvals)
	into["nearestlink.norm_pruned"] = float64(t.NormPruned)
	into["nearestlink.early_exited"] = float64(t.EarlyExited)
	into["nearestlink.pruned_fraction"] = t.PrunedFraction()
	into["nearestlink.heap_pops"] = float64(t.HeapPops)
	into["nearestlink.second_best_hits"] = float64(t.SecondBestHits)
	into["nearestlink.rescans"] = float64(t.Rescans)
	if n := t.Rescans + t.SecondBestHits; n > 0 {
		into["nearestlink.rescan_ratio"] = float64(t.Rescans) / float64(n)
	}
}

// hitRatio is the share of augmentation candidates verified as security
// patches.
func hitRatio(rounds []augment.Round) float64 {
	cand, verified := 0, 0
	for _, r := range rounds {
		cand += r.Candidates
		verified += r.Verified
	}
	if cand == 0 {
		return 0
	}
	return float64(verified) / float64(cand)
}

// copyCounts copies the op's counters into the per-layer metrics.
func copyCounts(from, into map[string]float64) {
	for k, v := range from {
		into[k] = v
	}
}

// parallel runs fn(0..n-1) on the benchmark's worker count.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// patchesOf computes the commits' patches (the diff layer of input
// generation) on the benchmark's worker count.
func patchesOf(commits []*corpus.LabeledCommit) []*diff.Patch {
	out := make([]*diff.Patch, len(commits))
	parallel(len(commits), func(i int) { out[i] = commits[i].Commit.Patch() })
	return out
}

// extractFeatures runs features.Extract over patches on the benchmark's
// worker count, inside one "features" span under parent.
func extractFeatures(tr *tracer, parent int, patches []*diff.Patch) [][]float64 {
	id := tr.begin("features", parent)
	defer tr.end(id)
	out := make([][]float64, len(patches))
	parallel(len(patches), func(i int) { out[i] = features.Extract(patches[i], 0) })
	return out
}

// newDigest hashes an op's output parts into a hex SHA-256.
func newDigest(parts ...any) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			h.Write([]byte(v))
			h.Write([]byte{0})
		case int:
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		case []int:
			for _, x := range v {
				binary.LittleEndian.PutUint64(buf[:], uint64(x))
				h.Write(buf[:])
			}
			h.Write([]byte{1})
		case []string:
			for _, s := range v {
				h.Write([]byte(s))
				h.Write([]byte{0})
			}
			h.Write([]byte{1})
		default:
			panic("digest: unsupported part type")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
