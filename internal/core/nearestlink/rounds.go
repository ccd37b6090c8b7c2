package nearestlink

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"patchdb/internal/par"
	"patchdb/internal/telemetry"
)

// Rounds keeps one engine alive across the rounds of an augmentation run
// over one pool (paper Fig. 2). Each round is a Search over the current
// security rows and pool; between rounds, Remove takes the verified
// columns out of the pool and appends the verified security patches among
// them to the security rows. A later round then reuses the previous
// round's engine: while the max-abs weights hold, it compacts the pool's
// layout in place and orders only the security rows again, instead of
// preparing the whole pool again. Every round's links are bit-identical to
// a from-scratch Search on that round's inputs (DESIGN.md §5.2, Rounds).
//
// A Rounds holds pooled buffers until Close. It is not safe for concurrent
// use, and the caller must not mutate the input rows while it is open.
type Rounds struct {
	o        Options
	security [][]float64 // the caller's rows, then the promoted wild rows
	wild     [][]float64 // the pool rows by engine matrix row; replaced, never written
	buf      *buffers
	e        *engine  // the last round's engine; nil before the first
	pending  *removal // the last Remove, applied by the next Search
}

// removal is a validated Remove call.
type removal struct {
	gone     []byte // per current column: stays, left or promoted
	promoted []int  // the promoted columns, in append order
}

// The states of a column in removal.gone.
const (
	stays byte = iota
	left
	promoted
)

// NewRounds opens a run of rounds over the security rows and the wild pool.
// It validates nothing: the first Search reports invalid input. opts is
// copied, and its Stats pointer is filled by every Search.
func NewRounds(security, wild [][]float64, opts *Options) *Rounds {
	return &Rounds{
		o:        opts.resolved(),
		security: slices.Clip(security),
		wild:     wild,
		buf:      searchBuffers.Get().(*buffers),
	}
}

// Close returns the run's buffers to the pool. The Rounds must not be used
// afterwards.
func (r *Rounds) Close() {
	if r.buf != nil {
		searchBuffers.Put(r.buf)
		r.buf, r.e = nil, nil
	}
}

// Remove takes the columns removed (indices into the current pool) out of
// the pool before the next Search, and appends the columns promoted, a
// subset of removed, to the security rows in the given order. Link indices
// of the next Search refer to the pool with the removed columns dropped,
// order kept, and to the security rows with the promoted ones appended. It
// may be called once between two Searches.
func (r *Rounds) Remove(removed, promotedCols []int) error {
	if r.pending != nil {
		return errors.New("nearestlink: Remove called twice without a Search")
	}
	n := len(r.wild)
	if r.e != nil {
		n = len(r.e.orig)
	}
	gone := make([]byte, n)
	for _, j := range removed {
		if j < 0 || j >= len(gone) || gone[j] != stays {
			return fmt.Errorf("nearestlink: removed column %d is out of range or repeated", j)
		}
		gone[j] = left
	}
	for _, j := range promotedCols {
		if j < 0 || j >= len(gone) || gone[j] != left {
			return fmt.Errorf("nearestlink: promoted column %d is not a removed column, or is repeated", j)
		}
		gone[j] = promoted
	}
	r.pending = &removal{gone: gone, promoted: slices.Clone(promotedCols)}
	return nil
}

// Search runs one round of Algorithm 1 over the current security rows and
// pool; see the package-level Search for its contract. Its prepare span
// carries the attribute rebuilt: true when a later round had to build the
// engine from scratch.
func (r *Rounds) Search(ctx context.Context) ([]Link, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := r.o
	ctx, span := telemetry.Start(ctx, "nearestlink.search")
	defer span.End()
	_, phase := telemetry.Start(ctx, "nearestlink.prepare")
	rebuilt, err := r.prepare()
	phase.SetAttr("rebuilt", rebuilt)
	phase.End()
	if err != nil {
		return nil, err
	}
	e := r.e
	stats := Stats{SecurityRows: e.sec.rows, WildCols: len(e.orig)}

	// Phase 1 — each row's best and runner-up (Algorithm 1 lines 2-3)
	// through the blocked scan kernel (see block.go for the layout
	// and the exactness argument). Visiting order does not matter for
	// correctness: updates are lexicographic on (distance, original column)
	// and all rejections are strictly conservative, so the result is
	// identical to the reference's ascending scan.
	_, phase = telemetry.Start(ctx, "nearestlink.scan")
	cands, err := e.scan(ctx, o, &stats)
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
	err = e.deepen(ctx, o, &stats, cands)
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
	// column that was free when it was filled, so the row gets no link;
	// only a full list used up is rescanned, as a one-row task of the same
	// kernel that refills it to listDepth.
	_, phase = telemetry.Start(ctx, "nearestlink.greedy")
	links, err := e.greedy(ctx, &stats, cands)
	phase.End()
	if err != nil {
		return nil, err
	}
	stats.finish(span)
	if o.Stats != nil {
		*o.Stats = stats
	}
	return links, nil
}

// prepare readies the engine for a round. The first round builds it. A
// later round applies the pending removal to the inputs, and then keeps the
// engine when the weights hold, compacting it, or builds it again, which it
// reports as rebuilt.
func (r *Rounds) prepare() (rebuilt bool, err error) {
	if rm := r.pending; rm != nil {
		r.pending = nil
		e := r.e
		// r.wild is indexed by the engine's matrix rows; a current column j
		// is row e.row(j).
		row := func(j int) int { return j }
		if e != nil {
			row = e.row
		}
		var gone [][]float64 // the raw rows that leave security ∪ wild
		kept := 0
		for j, g := range rm.gone {
			switch g {
			case stays:
				kept++
			case left:
				gone = append(gone, r.wild[row(j)])
			}
		}
		for _, j := range rm.promoted {
			r.security = append(r.security, r.wild[row(j)])
		}
		if e != nil && kept > 0 && e.weightsHold(gone) {
			e.compact(r.o.Workers, rm, r.buf)
			return false, nil
		}
		wild := make([][]float64, 0, kept)
		for j, g := range rm.gone {
			if g == stays {
				wild = append(wild, r.wild[row(j)])
			}
		}
		r.wild, rebuilt = wild, e != nil
	} else if r.e != nil {
		return false, nil // a repeated round over unchanged inputs
	}
	r.e, err = prepare(r.security, r.wild, r.o, r.buf)
	return rebuilt, err
}

// weightsHold reports whether the max-abs weights still hold after the raw
// rows gone left security ∪ wild; promoted rows only move inside the union.
// A maximum falls exactly when the last row attaining it leaves, so each
// gone row that attains a maximum is taken off that dimension's tie count.
// Raw values are compared because a weighted maximum v·(1/v) need not round
// to 1.
func (e *engine) weightsHold(gone [][]float64) bool {
	hold := true
	for _, row := range gone {
		for j, v := range row {
			if v != 0 && math.Abs(v) == e.maxAbs[j] {
				e.maxTies[j]--
				hold = hold && e.maxTies[j] > 0
			}
		}
	}
	return hold
}

// row returns the matrix row of current pool column j.
func (e *engine) row(j int) int {
	if e.cols == nil {
		return j
	}
	return e.cols[j]
}

// col returns the current pool column of matrix row i.
func (e *engine) col(i int) int {
	if e.cols == nil {
		return i
	}
	return sort.SearchInts(e.cols, i)
}

// compact applies a removal to an engine whose weights hold. The weighted
// rows of the promoted columns, and their norms, are bit-identical to what
// a fresh weighting of the raw rows would give, so they are appended to the
// security matrix as they are. The removed columns are dropped from the
// walk-order arrays with their order kept: the remaining columns keep their
// norms, and the engine identifies columns by matrix row, which orders them
// as their current indices do, so the (norm, index) order needs no sort.
// The pool matrix is only gathered by row, so its rows stay in place and
// cols maps the current columns to them. Only the security scan order is
// built again.
func (e *engine) compact(workers int, rm *removal, buf *buffers) {
	m, d := e.sec.rows, e.sec.cols
	secN := make([]float64, m, m+len(rm.promoted))
	for i := range secN {
		secN[i] = e.secN[e.rank[i]]
	}
	buf.sec = slices.Grow(buf.sec[:m*d], len(rm.promoted)*d)
	for _, j := range rm.promoted {
		buf.sec = append(buf.sec, e.wld.row(e.row(j))...)
	}
	e.sec = &matrix{rows: m + len(rm.promoted), cols: d, data: buf.sec}
	secN = append(secN, weighNorms(1, &matrix{rows: len(rm.promoted), cols: d, data: buf.sec[m*d:]}, nil)...)

	dead := make([]bool, e.wld.rows)
	cols := make([]int, 0, len(rm.gone))
	for j, g := range rm.gone {
		if g == stays {
			cols = append(cols, e.row(j))
		} else {
			dead[e.row(j)] = true
		}
	}
	// The maximal runs of kept walk positions; the walk-order arrays are
	// disjoint, so they move in parallel.
	var runs []run
	for k, i := range e.orig {
		if dead[i] {
			continue
		}
		if l := len(runs) - 1; l >= 0 && runs[l].hi == k {
			runs[l].hi++
		} else {
			runs = append(runs, run{k, k + 1})
		}
	}
	moves := []func(){
		func() { moveRuns(e.wldW, e.wld.cols, runs) },
		func() { moveRuns(e.wldSegs, nseg, runs) },
		func() { moveRuns(e.wldNS, 1, runs) },
		func() { moveRuns(e.orig, 1, runs) },
	}
	_ = par.For(nil, len(moves), workers, func(_, i int) { moves[i]() })
	n := len(cols)
	e.cols = cols
	e.orig = e.orig[:n]
	e.wldNS = e.wldNS[:n]
	e.wldSegs = e.wldSegs[:n*nseg]
	e.wldW = e.wldW[:n*e.wld.cols]
	e.orderSecurity(workers, secN)
}

// run is a half-open range [lo, hi) of row positions.
type run struct{ lo, hi int }

// moveRuns packs the rows of the given width that runs cover to the front
// of data, in order: one copy per run, and none for the leading run that is
// already in place.
func moveRuns[T any](data []T, width int, runs []run) {
	w := 0
	for _, r := range runs {
		lo, hi := r.lo*width, r.hi*width
		if w != lo {
			copy(data[w:], data[lo:hi])
		}
		w += hi - lo
	}
}
