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
// collisions from the cached candidate list — each row's smallest
// (distance, column) pairs — instead of an O(N) rescan. Despite the
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
	"time"

	"patchdb/internal/par"
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
	// candidate list without rescanning the row: by a later entry whose
	// column is free, or, for a list that held every column with a finite
	// distance, by finding that none is left.
	SecondBestHits int
	// Rescans counts row rescans over the unused columns on column
	// collisions (Algorithm 1 lines 10-15) that used up a full candidate
	// list.
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

// prepare validates the inputs of Search and KNNSelect, flattens them into
// buf, and builds the engine. The copy is the pass that rejects non-finite
// values; weighting (unless normalization is disabled) runs in place on
// it, and the engine's stripes land in buf too.
func prepare(security, wild [][]float64, o Options, buf *buffers) (*engine, error) {
	if len(security) == 0 {
		return nil, ErrNoSecurityPatches
	}
	if len(wild) == 0 {
		return nil, ErrNoWildPatches
	}
	if err := validateDims(security, wild); err != nil {
		return nil, err
	}
	sec, wld, err := buf.flatten(o.Workers, security, wild)
	if err != nil {
		return nil, err
	}
	var w []float64
	if !o.DisableNormalization {
		w = weightsFlat(o.Workers, sec, wld)
	}
	secN := weighNorms(o.Workers, sec, w)
	wldN := weighNorms(o.Workers, wld, w)
	return newEngine(sec, wld, secN, wldN, o.Workers, buf), nil
}

// canceled wraps a context error in the package's vocabulary.
func canceled(ctx context.Context) error {
	return fmt.Errorf("nearestlink: search canceled: %w", ctx.Err())
}

// Search runs Algorithm 1: for each of the M verified security patches it
// selects one distinct wild patch so that the total link distance is
// (greedily) minimized. It returns exactly min(M, N) links, identical to
// ReferenceSearch's for any input and worker count. ctx is checked between
// scan tasks and periodically during assignment; cancellation aborts the
// search with a wrapped context error. Ragged rows return a wrapped
// ErrDimensionMismatch, NaN or ±Inf values a wrapped ErrNonFinite. The
// inputs are not mutated. Its span nearestlink.search has one child per
// phase: prepare, scan, deepen and greedy.
func Search(ctx context.Context, security, wild [][]float64, opts *Options) ([]Link, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.resolved()
	ctx, span := telemetry.Start(ctx, "nearestlink.search")
	defer span.End()
	buf := searchBuffers.Get().(*buffers)
	defer searchBuffers.Put(buf)
	_, phase := telemetry.Start(ctx, "nearestlink.prepare")
	e, err := prepare(security, wild, o, buf)
	phase.End()
	if err != nil {
		return nil, err
	}
	m, n := e.sec.rows, e.wld.rows
	stats := Stats{SecurityRows: m, WildCols: n}

	// Phase 1 — each row's best and runner-up (Algorithm 1 lines 2-3)
	// through the blocked, sharded scan kernel (see block.go for the layout
	// and the exactness argument). Visiting order does not matter for
	// correctness: updates are lexicographic on (distance, original column)
	// and all rejections are strictly conservative, so the result is
	// identical to the reference's ascending scan.
	_, phase = telemetry.Start(ctx, "nearestlink.scan")
	cands, ubK, err := e.scan(ctx, o, &stats)
	phase.End()
	if err != nil {
		return nil, err
	}

	// Deepening — a row whose best and runner-up columns are both certain
	// to be taken by rows that pop before it reaches them would use up its
	// phase-1 list and rescan. Only those rows get their lists filled to
	// listDepth now, by a second blocked scan; the others keep phase 1's
	// tighter two-best.
	_, phase = telemetry.Start(ctx, "nearestlink.deepen")
	err = e.deepen(ctx, o, &stats, cands, ubK)
	phase.End()
	if err != nil {
		return nil, err
	}

	// Phase 2 — heap-driven greedy assignment (Algorithm 1 lines 5-17).
	// Every pending row keeps exactly one live heap entry keyed by its
	// current list head, so a pop is the exact argmin the reference loop
	// rescans O(M) rows for. A collision moves the row to the first entry
	// of its list whose column is still free. That entry is exactly what a
	// fresh rescan would find: the list is the top of a free set that only
	// shrinks afterwards, so no free column can rank between its entries.
	// A list used up with fewer entries than it asked for held every
	// column with a finite distance, so the row gets no link; only a full
	// list used up is rescanned, as a one-row task of the same kernel that
	// refills it to listDepth.
	_, phase = telemetry.Start(ctx, "nearestlink.greedy")
	links, err := e.greedy(ctx, &stats, cands)
	phase.End()
	if err != nil {
		return nil, err
	}
	stats.finish(span)
	stats.Publish(o.Registry)
	if o.Stats != nil {
		*o.Stats = stats
	}
	return links, nil
}

// scan seeds every row's pruning bounds and runs phase 1 at depth 2. It
// returns the candidate lists and each scan-order row's seeded bound on its
// listDepth-th best, for deepening.
func (e *engine) scan(ctx context.Context, o Options, stats *Stats) (*candidates, []float64, error) {
	m := e.sec.rows
	ub2 := make([]float64, m)
	ubK := make([]float64, m)
	counters := make([]scanCounters, chunkCount(o.Workers, m))
	forChunks(o.Workers, m, func(c, lo, hi int) {
		var sc scanCounters // local: the chunks' slots share cache lines
		for t := lo; t < hi; t++ {
			ub2[t], ubK[t] = e.seedBounds(t, &sc)
		}
		counters[c] = sc
	})
	for _, c := range counters {
		stats.addScan(c)
	}
	if ctx.Err() != nil {
		return nil, nil, canceled(ctx)
	}
	rows := make([]int, m)
	for t := range rows {
		rows[t] = t
	}
	cands := newCandidates(m)
	if err := newBlockPlan(e, o, rows, 2, ub2, stats).run(ctx, o, stats, cands); err != nil {
		return nil, nil, err
	}
	return cands, ubK, nil
}

// deepen refills to listDepth the lists of deepRows, by a second blocked
// scan over just those rows seeded with their listDepth-th sampled
// distances.
func (e *engine) deepen(ctx context.Context, o Options, stats *Stats, cands *candidates, ubK []float64) error {
	rows := deepRows(e, cands)
	if len(rows) == 0 {
		return nil
	}
	ub := make([]float64, len(rows))
	for pi, t := range rows {
		ub[pi] = ubK[t]
	}
	return newBlockPlan(e, o, rows, listDepth, ub, stats).run(ctx, o, stats, cands)
}

// deepRows returns, in scan order, the rows whose full phase-1 list is
// certain to be used up in the greedy phase, so that each would otherwise
// rescan. Pops come in non-decreasing (key, row) order, so a column is
// certain to be taken before key (d, i) when some row c reaches it as its
// list head with a smaller (key, row): c either takes the column or finds
// it taken. That holds for every row's best column at its phase-1 key, and
// for the runner-up of a row whose best is itself certain to be taken.
// Rows that may still keep an entry are left at depth 2, whose bound is
// much tighter than a listDepth-th best in sparse pools.
func deepRows(e *engine, cands *candidates) []int {
	// by[j] is 1 + the row of the smallest claim on column j (0: none), at
	// distance byD[j].
	by := make([]int, e.wld.rows)
	byD := make([]float64, e.wld.rows)
	claim := func(i, k int) {
		j, d := cands.j[i*listDepth+k], cands.d[i*listDepth+k]
		if c := by[j] - 1; c < 0 || d < byD[j] || (d == byD[j] && i < c) {
			by[j], byD[j] = i+1, d
		}
	}
	// taken reports whether entry k of row i is certain to be taken by
	// another row before row i reaches it. A row's own claims sit exactly
	// at its keys, so they never count.
	taken := func(i, k int) bool {
		j, d := cands.j[i*listDepth+k], cands.d[i*listDepth+k]
		c := by[j] - 1
		return c >= 0 && (byD[j] < d || (byD[j] == d && c < i))
	}
	for i, n := range cands.n {
		if n > 0 {
			claim(i, 0)
		}
	}
	var second []int
	for i, n := range cands.n {
		if n == 2 && taken(i, 0) {
			second = append(second, i)
		}
	}
	for _, i := range second {
		claim(i, 1)
	}
	var rows []int
	for t, i := range e.secOrder {
		if cands.n[i] == 2 && taken(i, 0) && taken(i, 1) {
			rows = append(rows, t)
		}
	}
	return rows
}

// greedy runs the heap-driven assignment over the candidate lists.
func (e *engine) greedy(ctx context.Context, stats *Stats, cands *candidates) ([]Link, error) {
	m, n := e.sec.rows, e.wld.rows
	used := make([]bool, n)
	total := min(m, n)
	links := make([]Link, 0, total)
	u := make([]float64, m)
	for i := range u {
		u[i] = inf
		if cands.n[i] > 0 {
			u[i] = cands.d[i*listDepth]
		}
	}
	h := heapifyRowHeap(u)
	var rescanCounters scanCounters
	var rescanScratch *blockScratch
	for len(links) < total && h.len() > 0 {
		stats.HeapPops++
		if stats.HeapPops&1023 == 0 && ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		d, i := h.pop()
		base, p := i*listDepth, cands.pos[i]
		if p == cands.n[i] {
			continue // every distance overflowed: no link, as in the reference
		}
		if j := cands.j[base+p]; !used[j] {
			used[j] = true
			links = append(links, Link{Security: i, Wild: j, Distance: math.Sqrt(d)})
			continue
		}
		for p++; p < cands.n[i] && used[cands.j[base+p]]; p++ {
		}
		cands.pos[i] = p
		if p < cands.n[i] {
			// Collision resolved by the row's next free list entry.
			stats.SecondBestHits++
			h.push(cands.d[base+p], i)
			continue
		}
		if cands.n[i] < cands.depth[i] {
			// The list held every column with a finite distance, and all
			// are taken: no free column is left for this row.
			stats.SecondBestHits++
			continue
		}
		// A full list used up: rescan over the unused columns.
		stats.Rescans++
		if rescanScratch == nil {
			rescanScratch = newBlockScratch(1, listDepth)
		}
		e.rescan(i, used, &rescanCounters, rescanScratch, cands)
		if cands.n[i] == 0 {
			continue // no free column left for this row
		}
		h.push(cands.d[base], i)
	}
	stats.addScan(rescanCounters)
	return links, nil
}

// chunkCount is the number of fixed row chunks forChunks cuts n rows into
// for workers: one per worker, at most one per row, at least one.
func chunkCount(workers, n int) int {
	return max(1, min(workers, n))
}

// forChunks cuts [0, n) into chunkCount(workers, n) contiguous chunks and
// runs fn(c, lo, hi) for chunk c on par.For, one worker per chunk,
// returning when all are done. The engine's per-row set-up passes run
// through it: their chunk results are either disjoint writes or merged
// exactly (a max, the lowest-indexed error, integer counters), so they do
// not depend on the worker count.
func forChunks(workers, n int, fn func(c, lo, hi int)) {
	chunks := chunkCount(workers, n)
	_ = par.For(nil, chunks, chunks, func(_, c int) {
		fn(c, c*n/chunks, (c+1)*n/chunks)
	})
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
// column. ctx is checked between scan tasks; cancellation aborts with a
// wrapped context error. Its span nearestlink.knn has the children prepare
// and scan.
func KNNSelect(ctx context.Context, security, wild [][]float64, opts *Options) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.resolved()
	ctx, span := telemetry.Start(ctx, "nearestlink.knn")
	defer span.End()
	buf := searchBuffers.Get().(*buffers)
	defer searchBuffers.Put(buf)
	_, phase := telemetry.Start(ctx, "nearestlink.prepare")
	e, err := prepare(security, wild, o, buf)
	phase.End()
	if err != nil {
		return nil, err
	}
	m := e.sec.rows
	stats := Stats{SecurityRows: m, WildCols: e.wld.rows}
	_, phase = telemetry.Start(ctx, "nearestlink.scan")
	cands, _, err := e.scan(ctx, o, &stats)
	phase.End()
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool, m)
	var out []int
	for i := 0; i < m; i++ {
		if cands.n[i] == 0 {
			continue
		}
		if j := cands.j[i*listDepth]; !seen[j] {
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
