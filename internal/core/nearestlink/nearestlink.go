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
	// Stats, when non-nil, is filled with search accounting (timing,
	// pruning, heap activity) on return. The same counters go to the
	// attributes of the call's nearestlink.search span.
	Stats *Stats
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

// Stats is the accounting of one Search call.
type Stats struct {
	// SecurityRows and WildCols are the problem dimensions.
	SecurityRows, WildCols int
	// DistanceEvals counts candidate pairs whose per-dimension evaluation
	// was started: pairs that survived every O(1) norm bound.
	DistanceEvals int64
	// NormPruned counts candidates rejected by an O(1) norm-decomposed
	// bound — the bulk norm-window skip (counted per column skipped) or the
	// per-candidate segment-norm bound — before any row data was touched.
	NormPruned int64
	// EarlyExited counts evaluations rejected by the partial-distance
	// screen: over the prefix with the tail segment bound, or over the
	// whole row.
	EarlyExited int64
	// HeapPops counts greedy-phase heap extractions.
	HeapPops int
	// SecondBestHits counts column collisions resolved from the cached
	// candidate list without rescanning the row: by a later entry whose
	// column is free, or, for a list that held every free column, by
	// finding that none is left.
	SecondBestHits int
	// Rescans counts row rescans over the unused columns on column
	// collisions (Algorithm 1 lines 10-15) that used up a full candidate
	// list.
	Rescans int
	// Duration is the wall-clock time of the search: the End reading of
	// the call's nearestlink.search span.
	Duration time.Duration
}

// addScan folds per-worker scan counters into the stats.
func (s *Stats) addScan(c scanCounters) {
	s.DistanceEvals += c.evals
	s.NormPruned += c.normPruned
	s.EarlyExited += c.earlyExited
}

// PrunedFraction is (NormPruned+EarlyExited) / candidates considered: the
// fraction of candidate pairs that never paid for a full d-dimensional
// evaluation.
func (s Stats) PrunedFraction() float64 {
	return Totals{DistanceEvals: s.DistanceEvals, NormPruned: s.NormPruned, EarlyExited: s.EarlyExited}.PrunedFraction()
}

// finish attaches the counters to the span that traces the call, so a
// trace explains the search time it records, and ends it: Duration is the
// span's reading.
func (s *Stats) finish(span *telemetry.Span) {
	span.SetAttr("security_rows", s.SecurityRows)
	span.SetAttr("wild_cols", s.WildCols)
	span.SetAttr("distance_evals", s.DistanceEvals)
	span.SetAttr("norm_pruned", s.NormPruned)
	span.SetAttr("early_exited", s.EarlyExited)
	span.SetAttr("pruned_fraction", s.PrunedFraction())
	span.SetAttr("heap_pops", s.HeapPops)
	span.SetAttr("second_best_hits", s.SecondBestHits)
	span.SetAttr("rescans", s.Rescans)
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
	t.Merge(Totals{
		Searches: 1, DistanceEvals: s.DistanceEvals, NormPruned: s.NormPruned,
		EarlyExited: s.EarlyExited, HeapPops: s.HeapPops, SecondBestHits: s.SecondBestHits,
		Rescans: s.Rescans, Duration: s.Duration,
	})
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
// a feature value is NaN or ±Inf, and (wrapped, with dimension detail) when
// a dimension's max-abs weight 1/max|a_j| overflows to +Inf, which happens
// when its largest |value| is subnormal. Such a value has no place in the
// distance order: a NaN distance never wins a comparison, so its row would
// get no column, and an infinite value or weight turns Inf·0 into NaN.
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
// over every value: flattening or weighting.
func checkFinite(s, i int, row []float64) error {
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s row %d column %d is %v", ErrNonFinite, setName(s), i, j, v)
		}
	}
	return nil
}

// Weights computes the per-dimension max-abs weights w_j = 1/max|a_j| over
// all provided rows (paper Sec. III-B-2). Ragged rows return a wrapped
// ErrDimensionMismatch instead of indexing past the end of short rows, and
// NaN or ±Inf values, or a weight that overflows, a wrapped ErrNonFinite.
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
	maxAbs := make([]float64, dim)
	for s, set := range sets {
		for i, row := range set {
			if err := checkFinite(s, i, row); err != nil {
				return nil, err
			}
			for j, v := range row {
				if a := math.Abs(v); a > maxAbs[j] {
					maxAbs[j] = a
				}
			}
		}
	}
	return invert(maxAbs)
}

// invert turns per-dimension maxima into the weights 1/max|a_j|, and 1
// where a dimension is all zeros. A maximum below 1/MaxFloat64 (subnormal)
// has no finite weight, and returns a wrapped ErrNonFinite naming its
// dimension.
func invert(maxAbs []float64) ([]float64, error) {
	w := make([]float64, len(maxAbs))
	for j, v := range maxAbs {
		w[j] = 1
		if v != 0 {
			w[j] = 1 / v
		}
		if math.IsInf(w[j], 0) {
			return nil, fmt.Errorf("%w: dimension %d has max-abs %v, whose weight 1/max overflows", ErrNonFinite, j, v)
		}
	}
	return w, nil
}

// prepare validates the inputs of a round, flattens them into buf, and
// builds the engine. The copy is the pass that rejects non-finite values;
// weighting runs in place on it, and the engine's stripes land in buf too.
// Weighted, every |value| is at most 1 up to rounding, so every norm and
// squared distance is finite (at most about 4·d).
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
	maxAbs, ties := maxAbsFlat(o.Workers, sec, wld)
	w, err := invert(maxAbs)
	if err != nil {
		return nil, err
	}
	secN := weighNorms(o.Workers, sec, w)
	wldN := weighNorms(o.Workers, wld, w)
	e := newEngine(sec, wld, secN, wldN, o.Workers, buf)
	e.maxAbs, e.maxTies = maxAbs, ties
	return e, nil
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
// ErrDimensionMismatch, NaN or ±Inf values, or a max-abs weight that
// overflows, a wrapped ErrNonFinite. The inputs are not mutated. It is the
// single round of a Rounds, so its span nearestlink.search has one child
// per phase: prepare, scan, deepen and greedy.
func Search(ctx context.Context, security, wild [][]float64, opts *Options) ([]Link, error) {
	r := NewRounds(security, wild, opts)
	defer r.Close()
	return r.Search(ctx)
}

// scan runs phase 1: every row's list at depth 2 over the whole pool.
func (e *engine) scan(ctx context.Context, o Options, stats *Stats) (*candidates, error) {
	rows := make([]int, e.sec.rows)
	for t := range rows {
		rows[t] = t
	}
	cands := newCandidates(e.sec.rows)
	p := blockPlan{e: e, rows: rows, depth: 2}
	if err := p.run(ctx, o, stats, cands); err != nil {
		return nil, err
	}
	return cands, nil
}

// deepen refills to listDepth the lists of deepRows, by a second blocked
// scan over just those rows.
func (e *engine) deepen(ctx context.Context, o Options, stats *Stats, cands *candidates) error {
	rows := deepRows(e, cands)
	if len(rows) == 0 {
		return nil
	}
	p := blockPlan{e: e, rows: rows, depth: listDepth}
	return p.run(ctx, o, stats, cands)
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
	for i := range cands.n {
		claim(i, 0)
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
	m := e.sec.rows
	used := make([]bool, e.wld.rows)
	total := min(m, len(e.orig))
	links := make([]Link, 0, total)
	u := make([]float64, m)
	for i := range u {
		u[i] = cands.d[i*listDepth] // phase 1 gives every row an entry
	}
	h := heapifyRowHeap(u)
	var rescanCounters scanCounters
	var rescanScratch *blockScratch
	rescan := blockPlan{e: e, rows: make([]int, 1), depth: listDepth, used: used}
	for len(links) < total && h.len() > 0 {
		stats.HeapPops++
		if stats.HeapPops&1023 == 0 && ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		d, i := h.pop()
		base, p := i*listDepth, cands.pos[i]
		if j := cands.j[base+p]; !used[j] {
			used[j] = true
			links = append(links, Link{Security: i, Wild: e.col(j), Distance: math.Sqrt(d)})
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
			// The list held every column that was free when it was
			// filled, and all are taken: no free column is left for this
			// row.
			stats.SecondBestHits++
			continue
		}
		// A full list used up: rescan it, as a one-row plan over the
		// unused columns.
		stats.Rescans++
		if rescanScratch == nil {
			rescanScratch = newBlockScratch(1, listDepth)
		}
		rescan.rows[0] = e.rank[i]
		rescan.runTask(0, &rescanCounters, rescanScratch, cands)
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

// weightedRows returns rows scaled by w (row-per-row allocation; used only
// by the reference paths).
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
