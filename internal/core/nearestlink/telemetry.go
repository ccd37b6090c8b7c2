package nearestlink

import "patchdb/internal/telemetry"

// The registry metric families the engine publishes. All are counters
// except the search-latency histogram; the counter values are deterministic
// for a given input at any worker count (the engine's exactness contract
// covers its accounting, not just its links).
const (
	// MetricSearches counts engine invocations (Search or KNNSelect).
	MetricSearches = "nearestlink_searches_total"
	// MetricDistanceEvals counts candidate pairs whose per-dimension
	// evaluation was started.
	MetricDistanceEvals = "nearestlink_distance_evals_total"
	// MetricNormPruned counts candidates rejected by an O(1) norm bound.
	MetricNormPruned = "nearestlink_norm_pruned_total"
	// MetricEarlyExited counts evaluations aborted by a partial-distance
	// screen.
	MetricEarlyExited = "nearestlink_early_exited_total"
	// MetricHeapPops counts greedy-phase heap extractions.
	MetricHeapPops = "nearestlink_heap_pops_total"
	// MetricSecondBestHits counts collisions absorbed by the runner-up
	// cache.
	MetricSecondBestHits = "nearestlink_second_best_hits_total"
	// MetricRescans counts full row rescans on column collisions.
	MetricRescans = "nearestlink_rescans_total"
	// MetricSearchSeconds is the per-search wall-clock histogram.
	MetricSearchSeconds = "nearestlink_search_seconds"
)

// Publish folds one search's counters into a telemetry registry. A nil
// registry is a no-op.
func (s Stats) Publish(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.Counter(MetricSearches).Inc()
	r.Counter(MetricDistanceEvals).Add(float64(s.DistanceEvals))
	r.Counter(MetricNormPruned).Add(float64(s.NormPruned))
	r.Counter(MetricEarlyExited).Add(float64(s.EarlyExited))
	r.Counter(MetricHeapPops).Add(float64(s.HeapPops))
	r.Counter(MetricSecondBestHits).Add(float64(s.SecondBestHits))
	r.Counter(MetricRescans).Add(float64(s.Rescans))
	r.Histogram(MetricSearchSeconds, nil).Observe(s.Duration.Seconds())
}
