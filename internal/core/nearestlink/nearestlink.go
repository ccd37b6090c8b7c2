// Package nearestlink implements PatchDB's core dataset-augmentation
// algorithm (Sec. III-B): max-abs feature weighting, the weighted Euclidean
// distance between verified security patches and unlabeled wild patches, and
// the greedy nearest link search of Algorithm 1 that pairs every verified
// security patch with a distinct, closest wild candidate.
//
// The implementation is a high-throughput search engine built for the
// paper's production shape (thousands of seeds × millions of wild commits):
// flat row-major matrices instead of pointer-chased rows, norm-decomposed
// pruned distance evaluation that rejects most candidates after O(1) work or
// a few dimensions, and a heap-driven greedy assignment that resolves column
// collisions from a cached runner-up instead of an O(N) rescan. Despite the
// pruning, the produced links are bit-identical to the straightforward
// transcription of Algorithm 1 retained in ReferenceSearch — see DESIGN.md
// §5.2 for the exactness argument. Memory stays O(M+N); the full M×N
// distance matrix is never materialized.
package nearestlink

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"patchdb/internal/telemetry"
)

var inf = math.Inf(1)

// Link pairs the m-th verified security patch with its selected wild patch.
type Link struct {
	// Security is the row index into the verified set.
	Security int
	// Wild is the selected column index into the unlabeled set.
	Wild int
	// Distance is the weighted Euclidean distance of the pair.
	Distance float64
}

// Options tunes the search.
type Options struct {
	// Workers bounds parallelism (default: GOMAXPROCS).
	Workers int
	// DisableNormalization skips the max-abs weighting (ablation only; the
	// paper always normalizes).
	DisableNormalization bool
	// Stats, when non-nil, is filled with search accounting (timing,
	// pruning, heap activity) on return.
	Stats *Stats
	// Registry, when non-nil, receives the engine counters and search
	// latency of every call (see the Metric* names in this package).
	Registry *telemetry.Registry

	// blockRows (default defaultBlockRows) and shardCols (default
	// defaultShardCols) shape phase 1's task grid: how many consecutive
	// scan-order security rows share a pass over a wild column, and how
	// many norm-sorted columns one task covers. They move cost between
	// pruning stages, and with it the Stats counters, but never the links;
	// Stats at a fixed pair are identical at any worker count. Only tests
	// set them, to get multi-cell grids at small shapes.
	blockRows, shardCols int
}

func (o *Options) resolved() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	return out
}

// Stats is the accounting of one Search or KNNSelect call.
type Stats struct {
	// SecurityRows and WildCols are the problem dimensions.
	SecurityRows, WildCols int
	// DistanceEvals counts candidate pairs whose per-dimension evaluation
	// was started — pairs that survived every O(1) norm bound — plus the
	// small fixed sample each row evaluates to seed its pruning bound.
	DistanceEvals int64
	// NormPruned counts candidates rejected by an O(1) norm-decomposed
	// bound — the bulk norm-window skip (counted per column skipped) or the
	// per-candidate segment-norm bound — before any row data was touched.
	NormPruned int64
	// EarlyExited counts evaluations aborted by a partial-distance bound —
	// the packed-prefix screen or the tail screen — before reaching the
	// last dimension.
	EarlyExited int64
	// PrunedFraction is (NormPruned+EarlyExited) / candidates
	// considered: the fraction of candidate pairs that never paid for a
	// full d-dimensional evaluation.
	PrunedFraction float64
	// HeapPops counts greedy-phase heap extractions.
	HeapPops int
	// SecondBestHits counts column collisions resolved from the cached
	// runner-up column without rescanning the row.
	SecondBestHits int
	// Rescans counts row rescans over the unused columns on column
	// collisions (Algorithm 1 lines 10-15) that the runner-up cache could
	// not absorb.
	Rescans int
	// Duration is the wall-clock time of the search: the End reading of
	// the call's nearestlink.search or nearestlink.knn span.
	Duration time.Duration
}

// addScan folds per-worker scan counters into the stats.
func (s *Stats) addScan(c scanCounters) {
	s.DistanceEvals += c.evals
	s.NormPruned += c.normPruned
	s.EarlyExited += c.earlyExited
}

// finish derives the pruned fraction, attaches the counters to the span
// that traces the call, and ends it: Duration is the span's reading.
func (s *Stats) finish(span *telemetry.Span) {
	if considered := s.NormPruned + s.DistanceEvals; considered > 0 {
		s.PrunedFraction = float64(s.NormPruned+s.EarlyExited) / float64(considered)
	}
	s.annotate(span)
	s.Duration = span.End()
}

// Totals aggregates Stats across many searches (e.g. all augmentation
// rounds of a build).
type Totals struct {
	Searches       int
	DistanceEvals  int64
	NormPruned     int64
	EarlyExited    int64
	HeapPops       int
	SecondBestHits int
	Rescans        int
	Duration       time.Duration
}

// Add folds one search's stats into the totals.
func (t *Totals) Add(s Stats) {
	t.Searches++
	t.DistanceEvals += s.DistanceEvals
	t.NormPruned += s.NormPruned
	t.EarlyExited += s.EarlyExited
	t.HeapPops += s.HeapPops
	t.SecondBestHits += s.SecondBestHits
	t.Rescans += s.Rescans
	t.Duration += s.Duration
}

// Merge folds another aggregate into the totals (e.g. one pool's
// augmentation totals into a build's).
func (t *Totals) Merge(o Totals) {
	t.Searches += o.Searches
	t.DistanceEvals += o.DistanceEvals
	t.NormPruned += o.NormPruned
	t.EarlyExited += o.EarlyExited
	t.HeapPops += o.HeapPops
	t.SecondBestHits += o.SecondBestHits
	t.Rescans += o.Rescans
	t.Duration += o.Duration
}

// PrunedFraction is the aggregate fraction of candidate pairs rejected
// before a full-dimensional evaluation.
func (t Totals) PrunedFraction() float64 {
	considered := t.NormPruned + t.DistanceEvals
	if considered == 0 {
		return 0
	}
	return float64(t.NormPruned+t.EarlyExited) / float64(considered)
}

// String renders the totals as a one-line engine summary.
func (t Totals) String() string {
	return fmt.Sprintf("searches=%d evals=%d pruned=%.1f%% rescans=%d second-best hits=%d search time=%s",
		t.Searches, t.DistanceEvals, 100*t.PrunedFraction(), t.Rescans, t.SecondBestHits,
		t.Duration.Round(time.Millisecond))
}

// ErrNoWildPatches is returned when the unlabeled pool is empty.
var ErrNoWildPatches = errors.New("nearestlink: empty wild pool")

// ErrNoSecurityPatches is returned when the verified set is empty.
var ErrNoSecurityPatches = errors.New("nearestlink: empty security set")

// ErrDimensionMismatch is returned (wrapped, with row detail) when feature
// rows do not all share one dimensionality.
var ErrDimensionMismatch = errors.New("nearestlink: feature dimension mismatch")

// ErrNonFinite is returned (wrapped, with set, row and column detail) when
// a feature value is NaN or ±Inf. Such a value has no place in the distance
// order: a NaN distance never wins a comparison, so its row would get no
// column, and an infinite value zeroes its dimension's max-abs weight,
// turning Inf·0 into NaN.
var ErrNonFinite = errors.New("nearestlink: non-finite feature value")

// setName names the s-th set of a (security, wild) argument list in error
// detail.
func setName(s int) string {
	switch s {
	case 0:
		return "security"
	case 1:
		return "wild"
	}
	return "set"
}

// validateDims checks that every row of every set has the dimensionality of
// the first row seen. Without this check, the distance kernels index past
// the end of short rows and panic.
func validateDims(sets ...[][]float64) error {
	dim := -1
	for s, set := range sets {
		for i, row := range set {
			if dim == -1 {
				dim = len(row)
				continue
			}
			if len(row) != dim {
				return fmt.Errorf("%w: %s row %d has %d features, want %d",
					ErrDimensionMismatch, setName(s), i, len(row), dim)
			}
		}
	}
	return nil
}

// checkFinite returns a wrapped ErrNonFinite naming the first NaN or ±Inf
// in row i of set s. Entry points call it from a pass they already make
// over every value — flattening or weighting — and checkFiniteSets covers
// the ones that make none.
func checkFinite(s, i int, row []float64) error {
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s row %d column %d is %v", ErrNonFinite, setName(s), i, j, v)
		}
	}
	return nil
}

// checkFiniteSets runs checkFinite over every row of every set.
func checkFiniteSets(sets ...[][]float64) error {
	for s, set := range sets {
		for i, row := range set {
			if err := checkFinite(s, i, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Weights computes the per-dimension max-abs weights w_j = 1/max|a_j| over
// all provided rows (paper Sec. III-B-2). Ragged rows return a wrapped
// ErrDimensionMismatch instead of indexing past the end of short rows, and
// NaN or ±Inf values a wrapped ErrNonFinite.
func Weights(sets ...[][]float64) ([]float64, error) {
	if err := validateDims(sets...); err != nil {
		return nil, err
	}
	var dim int
	for _, s := range sets {
		if len(s) > 0 {
			dim = len(s[0])
			break
		}
	}
	w := make([]float64, dim)
	for s, set := range sets {
		for i, row := range set {
			if err := checkFinite(s, i, row); err != nil {
				return nil, err
			}
			for j, v := range row {
				if a := math.Abs(v); a > w[j] {
					w[j] = a
				}
			}
		}
	}
	for j := range w {
		if w[j] == 0 {
			w[j] = 1
		} else {
			w[j] = 1 / w[j]
		}
	}
	return w, nil
}

// canceled wraps a context error in the package's vocabulary.
func canceled(ctx context.Context) error {
	return fmt.Errorf("nearestlink: search canceled: %w", ctx.Err())
}

// Search runs Algorithm 1: for each of the M verified security patches it
// selects one distinct wild patch so that the total link distance is
// (greedily) minimized. It returns exactly min(M, N) links, identical to
// ReferenceSearch's for any input and worker count. ctx is checked between
// row chunks of the scan phase and periodically during assignment;
// cancellation aborts the search with a wrapped context error. Ragged rows
// return a wrapped ErrDimensionMismatch, NaN or ±Inf values a wrapped
// ErrNonFinite.
func Search(ctx context.Context, security, wild [][]float64, opts *Options) ([]Link, error) {
	sec, wld, err := flattenPair(security, wild)
	if err != nil {
		return nil, err
	}
	// The flat copies are owned by the search, so weighting can run in
	// place without a second copy.
	return searchFlat(ctx, sec, wld, opts, true)
}

// SearchMatrix is Search over pre-flattened matrices. The inputs are not
// mutated: with normalization enabled the engine weights a private copy.
func SearchMatrix(ctx context.Context, security, wild *Matrix, opts *Options) ([]Link, error) {
	if err := checkMatrixPair(security, wild); err != nil {
		return nil, err
	}
	return searchFlat(ctx, security, wild, opts, false)
}

// flattenPair validates and flattens the [][]float64 inputs of Search and
// KNNSelect; the copy is also the pass that rejects non-finite values.
func flattenPair(security, wild [][]float64) (*Matrix, *Matrix, error) {
	if len(security) == 0 {
		return nil, nil, ErrNoSecurityPatches
	}
	if len(wild) == 0 {
		return nil, nil, ErrNoWildPatches
	}
	if err := validateDims(security, wild); err != nil {
		return nil, nil, err
	}
	sec, err := flatten(0, security)
	if err != nil {
		return nil, nil, err
	}
	wld, err := flatten(1, wild)
	if err != nil {
		return nil, nil, err
	}
	return sec, wld, nil
}

// checkMatrixPair validates the shapes of SearchMatrix and KNNSelectMatrix
// inputs; their values are checked by prepare.
func checkMatrixPair(security, wild *Matrix) error {
	if security == nil || security.rows == 0 {
		return ErrNoSecurityPatches
	}
	if wild == nil || wild.rows == 0 {
		return ErrNoWildPatches
	}
	if security.cols != wild.cols {
		return fmt.Errorf("%w: security rows have %d features, wild rows %d",
			ErrDimensionMismatch, security.cols, wild.cols)
	}
	return nil
}

// prepare weights the inputs and builds the engine. owned reports whether
// sec/wld are private copies made by flattening — which already rejected
// non-finite values, and which weighting may mutate — or caller-visible
// matrices that weighting must copy and that still need the check: the
// weighting pass makes it, and with normalization disabled a pass of its
// own does.
func prepare(sec, wld *Matrix, o Options, owned bool) (*engine, error) {
	if !o.DisableNormalization {
		w, err := weightsFlat(sec, wld)
		if err != nil {
			return nil, err
		}
		if owned {
			applyWeights(sec, w)
			applyWeights(wld, w)
		} else {
			sec = weightedClone(sec, w)
			wld = weightedClone(wld, w)
		}
	} else if !owned {
		if err := checkFiniteSets(sec.RowSlices(), wld.RowSlices()); err != nil {
			return nil, err
		}
	}
	return newEngine(sec, wld), nil
}

// searchFlat is the engine core.
func searchFlat(ctx context.Context, sec, wld *Matrix, opts *Options, owned bool) ([]Link, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.resolved()
	_, span := telemetry.Start(ctx, "nearestlink.search")
	defer span.End()
	stats := Stats{SecurityRows: sec.rows, WildCols: wld.rows}
	e, err := prepare(sec, wld, o, owned)
	if err != nil {
		return nil, err
	}
	m, n := sec.rows, wld.rows

	// Phase 1 — initial per-row (best, runner-up) minima (Algorithm 1
	// lines 2-3) through the blocked, sharded scan kernel: seeded norm
	// windows, then a task grid of (seed-row block × wild shard) cells whose
	// per-shard two-bests merge into the global pairs (see block.go for the
	// layout and the exactness argument). Visiting order does not matter for
	// correctness: updates are lexicographic on (distance, original column)
	// and all rejections are strictly conservative, so the result is
	// identical to the reference's ascending scan.
	u := make([]float64, m)
	v := make([]int, m)
	u2 := make([]float64, m)
	v2 := make([]int, m)
	sv := make([]bool, m) // runner-up cache valid
	if err := newBlockPlan(e, o).runBlocked(ctx, o, &stats, u, v, u2, v2); err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		sv[i] = v2[i] >= 0
	}

	// Phase 2 — heap-driven greedy assignment (Algorithm 1 lines 5-17).
	// Every pending row keeps exactly one live heap entry keyed by its
	// current u, so a pop is the exact argmin the reference loop rescans
	// O(M) rows for. A collision is resolved from the cached runner-up
	// when its column is still free (provably equal to a fresh rescan:
	// only the contested best column could have beaten it, and used
	// columns only shrink the candidate set); otherwise the row is
	// rescanned over the unused columns as a one-row task of the same
	// kernel.
	used := make([]bool, n)
	total := m
	if n < m {
		total = n
	}
	links := make([]Link, 0, total)
	h := heapifyRowHeap(u)
	var rescanCounters scanCounters
	rescanScratch := newBlockScratch(1)
	assigned := 0
	for assigned < total && h.len() > 0 {
		stats.HeapPops++
		if stats.HeapPops&1023 == 0 && ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		d, i := h.pop()
		j := v[i]
		if j < 0 {
			continue // every distance overflowed: no link, as in the reference
		}
		if !used[j] {
			used[j] = true
			links = append(links, Link{Security: i, Wild: j, Distance: math.Sqrt(d)})
			assigned++
			continue
		}
		if sv[i] && !used[v2[i]] {
			// Column collision absorbed by the cached second-best.
			stats.SecondBestHits++
			u[i], v[i], sv[i] = u2[i], v2[i], false
			h.push(u[i], i)
			continue
		}
		// Rescan over the unused columns, refreshing the runner-up.
		stats.Rescans++
		d1, j1, d2, j2 := e.rescan(i, used, &rescanCounters, rescanScratch)
		if j1 < 0 {
			continue // no free column left for this row
		}
		u[i], v[i] = d1, j1
		u2[i], v2[i] = d2, j2
		sv[i] = j2 >= 0
		h.push(d1, i)
	}
	stats.addScan(rescanCounters)
	stats.finish(span)
	stats.Publish(o.Registry)
	if o.Stats != nil {
		*o.Stats = stats
	}
	return links, nil
}

// parallelRows runs fn(i) for every row on o.Workers goroutines, checking
// ctx between row chunks and merging per-worker scan counters into stats.
func (e *engine) parallelRows(ctx context.Context, workers, m int, stats *Stats, fn func(i int, c *scanCounters)) error {
	if workers > m {
		workers = m
	}
	var (
		next int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c scanCounters
			for {
				// Each chunk is one security row (an O(N·d) unit of work);
				// ctx is checked before every chunk so cancellation
				// propagates promptly even mid-scan.
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= m || ctx.Err() != nil {
					break
				}
				fn(i, &c)
			}
			mu.Lock()
			stats.addScan(c)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return canceled(ctx)
	}
	return nil
}

// TotalDistance sums link distances (the optimization objective).
func TotalDistance(links []Link) float64 {
	sum := 0.0
	for _, l := range links {
		sum += l.Distance
	}
	return sum
}

// KNNSelect is the contrast the paper draws in Sec. III-B-3: plain 1-nearest
// -neighbor selection where a wild patch may be chosen by multiple verified
// patches. It returns the set of distinct selected columns (size <= M) in
// security-row order, used by the KNN-vs-nearest-link ablation. Each row's
// choice is its first-index argmin over the whole pool — phase 1's best
// column. ctx is checked between row chunks; cancellation aborts with a
// wrapped context error.
func KNNSelect(ctx context.Context, security, wild [][]float64, opts *Options) ([]int, error) {
	sec, wld, err := flattenPair(security, wild)
	if err != nil {
		return nil, err
	}
	return knnFlat(ctx, sec, wld, opts, true)
}

// KNNSelectMatrix is KNNSelect over pre-flattened matrices.
func KNNSelectMatrix(ctx context.Context, security, wild *Matrix, opts *Options) ([]int, error) {
	if err := checkMatrixPair(security, wild); err != nil {
		return nil, err
	}
	return knnFlat(ctx, security, wild, opts, false)
}

func knnFlat(ctx context.Context, sec, wld *Matrix, opts *Options, owned bool) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.resolved()
	_, span := telemetry.Start(ctx, "nearestlink.knn")
	defer span.End()
	stats := Stats{SecurityRows: sec.rows, WildCols: wld.rows}
	e, err := prepare(sec, wld, o, owned)
	if err != nil {
		return nil, err
	}
	m := sec.rows
	u := make([]float64, m)
	choice := make([]int, m)
	u2 := make([]float64, m)
	v2 := make([]int, m)
	if err := newBlockPlan(e, o).runBlocked(ctx, o, &stats, u, choice, u2, v2); err != nil {
		return nil, err
	}
	seen := make(map[int]bool, m)
	var out []int
	for _, j := range choice {
		if j >= 0 && !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	stats.finish(span)
	stats.Publish(o.Registry)
	if o.Stats != nil {
		*o.Stats = stats
	}
	return out, nil
}

// DistanceMatrix materializes the full weighted distance matrix (tests and
// small inputs only). Ragged rows return a wrapped ErrDimensionMismatch,
// NaN or ±Inf values a wrapped ErrNonFinite.
func DistanceMatrix(security, wild [][]float64, normalize bool) ([][]float64, error) {
	if err := validateDims(security, wild); err != nil {
		return nil, err
	}
	sec, wld := security, wild
	if normalize {
		w, err := Weights(security, wild)
		if err != nil {
			return nil, err
		}
		sec = weightedRows(security, w)
		wld = weightedRows(wild, w)
	} else if err := checkFiniteSets(security, wild); err != nil {
		return nil, err
	}
	d := make([][]float64, len(sec))
	for i, row := range sec {
		d[i] = make([]float64, len(wld))
		for j := range wld {
			d[i][j] = math.Sqrt(dist2(row, wld[j]))
		}
	}
	return d, nil
}

// weightedRows returns rows scaled by w (row-per-row allocation; used only
// by the reference paths and DistanceMatrix).
func weightedRows(rows [][]float64, w []float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = v * w[j]
		}
		out[i] = r
	}
	return out
}
