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
	// MetricSecondBestHits counts collisions resolved from the cached
	// candidate list.
	MetricSecondBestHits = "nearestlink_second_best_hits_total"
	// MetricRescans counts full row rescans on column collisions.
	MetricRescans = "nearestlink_rescans_total"
	// MetricSearchSeconds is the per-search wall-clock histogram.
	MetricSearchSeconds = "nearestlink_search_seconds"
)

// publish folds one search's counters into a telemetry registry.
func (s Stats) publish(r *telemetry.Registry) {
	r.Counter(MetricSearches).Inc()
	r.Counter(MetricDistanceEvals).Add(float64(s.DistanceEvals))
	r.Counter(MetricNormPruned).Add(float64(s.NormPruned))
	r.Counter(MetricEarlyExited).Add(float64(s.EarlyExited))
	r.Counter(MetricHeapPops).Add(float64(s.HeapPops))
	r.Counter(MetricSecondBestHits).Add(float64(s.SecondBestHits))
	r.Counter(MetricRescans).Add(float64(s.Rescans))
	r.Histogram(MetricSearchSeconds, nil).Observe(s.Duration.Seconds())
}

// annotate attaches the search's counters to the span that traces it, so
// a trace explains the search time it records.
func (s Stats) annotate(span *telemetry.Span) {
	span.SetAttr("security_rows", s.SecurityRows)
	span.SetAttr("wild_cols", s.WildCols)
	span.SetAttr("distance_evals", s.DistanceEvals)
	span.SetAttr("norm_pruned", s.NormPruned)
	span.SetAttr("early_exited", s.EarlyExited)
	span.SetAttr("pruned_fraction", s.PrunedFraction)
	span.SetAttr("heap_pops", s.HeapPops)
	span.SetAttr("second_best_hits", s.SecondBestHits)
	span.SetAttr("rescans", s.Rescans)
}
