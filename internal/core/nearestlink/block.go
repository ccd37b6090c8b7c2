package nearestlink

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Blocked, sharded candidate generation — the engine's one scan kernel.
//
// Algorithm 1 needs one search: the exact lexicographic (best, runner-up)
// wild column of a security row over the columns still unused. Phase 1
// runs it for every row over the whole pool; the greedy phase reruns it for
// one row over the unused columns when a collision cannot be absorbed by
// the cached runner-up (a rescan); KNNSelect is phase 1's best column. All
// three go through the same sweep and the same rejection ladder
// (scanRowTile).
//
// Phase 1 restructures the work on two axes so each stripe load is
// amortized and the grid parallelizes cleanly:
//
//   - Seed-major blocking: security rows are grouped into blocks of
//     defaultBlockRows consecutive scan-order (ascending-norm) rows. One
//     pass over a wild column evaluates the whole block against it, so the
//     column's stripe data (segment norms, packed prefix, tail) is loaded
//     once per block instead of once per row, and the block's own row data
//     stays L1-resident across the pass.
//   - Wild-pool sharding: the norm-sorted pool is cut into contiguous
//     shards of defaultShardCols columns. A (block, shard) pair is one
//     independent task; workers drain the task grid through an atomic
//     cursor. Each task computes the block rows' (best, runner-up) over its
//     shard only, and a deterministic merge folds the per-shard pairs into
//     the global two-best per row.
//
// A rescan is a one-row task over the whole pool: its window starts as the
// full pool, its bound as +Inf (see seedBound), and the used mask skips
// the taken columns.
//
// Exactness of the merge: every rejection inside a task is strictly above
// min(ub, d2_task) where ub (the seeded second-best bound) is ≥ the row's
// FINAL global second-best and d2_task, a running second-best over a subset
// of columns, likewise — so no candidate of the row's true global two-best
// is ever rejected in any shard. Both survive to reference-order
// confirmation in their own shards, each ranks in its shard's top two (at
// most one global candidate can out-rank it anywhere), and the
// lexicographic merge over all per-shard pairs therefore reproduces exactly
// the two smallest (distance, column) pairs the reference's full ascending
// scan would keep.
//
// Determinism of the accounting: the task grid is a pure function of
// (rows, cols, blockRows, shardCols) — never of Workers — each task's visit
// order and pruning bounds are fixed (bounds start from the row's seeded
// cap and tighten only within the task), and the int64 counters merge by
// addition. Rescans run serially in the greedy phase's deterministic order.
// Stats are therefore bit-identical at any worker count; blockRows and
// shardCols may change counter values (they move pruning decisions between
// stages) but never the links.

// defaultBlockRows is the seed-major block height: how many consecutive
// scan-order security rows share one pass over a wild column.
const defaultBlockRows = 16

// defaultShardCols is the wild-pool shard width in norm-sorted columns.
// Sized so a shard's hot stripes stay cache-resident while the task grid
// still offers blocks×shards-way parallelism at bench shapes.
const defaultShardCols = 131072

// blockPlan is the per-search state of phase 1: per-row seeded bounds and
// norm windows, and the per-(row, shard) two-best result grid. Rows are
// indexed by scan-order position t.
type blockPlan struct {
	e         *engine
	blockRows int
	shardCols int
	nblocks   int
	nshards   int

	ub     []float64 // seeded second-best upper bound (the pruning cap)
	ws, we []int     // global norm window [ws, we) implied by ub

	// Per-(t, shard) two-best results, written by exactly one task each.
	d1, d2 []float64
	j1, j2 []int
}

func newBlockPlan(e *engine, o Options) *blockPlan {
	m, n := e.sec.rows, len(e.wldNS)
	p := &blockPlan{e: e, blockRows: o.blockRows, shardCols: o.shardCols}
	if p.blockRows <= 0 {
		p.blockRows = defaultBlockRows
	}
	if p.shardCols <= 0 {
		p.shardCols = defaultShardCols
	}
	p.nblocks = (m + p.blockRows - 1) / p.blockRows
	p.nshards = (n + p.shardCols - 1) / p.shardCols
	p.ub = make([]float64, m)
	p.ws = make([]int, m)
	p.we = make([]int, m)
	cells := m * p.nshards
	p.d1 = make([]float64, cells)
	p.d2 = make([]float64, cells)
	p.j1 = make([]int, cells)
	p.j2 = make([]int, cells)
	return p
}

// seedRow runs the pre-phase for scan-order row t: the seeded bound and
// the global norm window it implies, plus the bulk accounting for every
// column outside the window (those are skipped by all of the row's tasks
// without even an O(1) test).
func (p *blockPlan) seedRow(t int, c *scanCounters) {
	e := p.e
	ub := e.seedBound(t, c)
	p.ub[t] = ub
	ws, we := e.normWindow(e.secN[t], e.secMid[t], ub)
	p.ws[t], p.we[t] = ws, we
	c.normPruned += int64(len(e.wldNS) - (we - ws))
}

// normWindow returns the half-open column range [ws, we) that survives the
// bulk norm-window test at bound b: exactly the sorted positions whose
// shaded norm gap does not prove them strictly worse than b. The true best
// and runner-up always lie inside (their distances are ≤ √b, and the norm
// gap lower-bounds the distance).
func (e *engine) normWindow(na float64, mid int, b float64) (ws, we int) {
	n := len(e.wldNS)
	if math.IsInf(b, 1) {
		return 0, n
	}
	ws = sort.Search(mid, func(k int) bool {
		g := na - e.wldNS[k]
		return g*g*normBoundShade <= b
	})
	we = mid + sort.Search(n-mid, func(d int) bool {
		g := e.wldNS[mid+d] - na
		return g*g*normBoundShade > b
	})
	return ws, we
}

// blockScratch is one worker's reusable per-task state, sized to the block
// height once per worker.
type blockScratch struct {
	ws, we          []int // row windows clamped to the task's shard
	d1, d2          []float64
	j1, j2          []int
	b               []float64 // live pruning bound: min(seeded cap, running d2)
	onRight, onLeft []bool
}

func newBlockScratch(block int) *blockScratch {
	return &blockScratch{
		ws: make([]int, block), we: make([]int, block),
		d1: make([]float64, block), d2: make([]float64, block),
		j1: make([]int, block), j2: make([]int, block),
		b:       make([]float64, block),
		onRight: make([]bool, block), onLeft: make([]bool, block),
	}
}

// start resets slot r for a scan over the window [ws, we) under bound b.
func (s *blockScratch) start(r, ws, we int, b float64) {
	s.ws[r], s.we[r] = ws, we
	s.d1[r], s.j1[r] = inf, -1
	s.d2[r], s.j2[r] = inf, -1
	s.b[r] = b
}

// runBlocked executes the pre-phase and the task grid on o.Workers
// goroutines, then merges the per-shard pairs into u/v (best) and u2/v2
// (runner-up), indexed by original security row.
func (p *blockPlan) runBlocked(ctx context.Context, o Options, stats *Stats, u []float64, v []int, u2 []float64, v2 []int) error {
	e := p.e
	m := e.sec.rows
	if err := e.parallelRows(ctx, o.Workers, m, stats, p.seedRow); err != nil {
		return err
	}

	tasks := p.nblocks * p.nshards
	workers := o.Workers
	if workers > tasks {
		workers = tasks
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
			scr := newBlockScratch(p.blockRows)
			for {
				task := int(atomic.AddInt64(&next, 1)) - 1
				if task >= tasks || ctx.Err() != nil {
					break
				}
				p.runTask(task, &c, scr)
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

	// Deterministic merge, ascending shard order: the global two-best is the
	// lexicographic top two over the union of every shard's reported pairs.
	for t := 0; t < m; t++ {
		d1, j1, d2, j2 := inf, -1, inf, -1
		base := t * p.nshards
		for s := 0; s < p.nshards; s++ {
			for pass := 0; pass < 2; pass++ {
				var d float64
				var j int
				if pass == 0 {
					d, j = p.d1[base+s], p.j1[base+s]
				} else {
					d, j = p.d2[base+s], p.j2[base+s]
				}
				if j < 0 {
					continue
				}
				if d < d1 || (d == d1 && j < j1) {
					d2, j2 = d1, j1
					d1, j1 = d, j
				} else if d < d2 || (d == d2 && j < j2) {
					d2, j2 = d, j
				}
			}
		}
		i := e.secOrder[t]
		u[i], v[i] = d1, j1
		u2[i], v2[i] = d2, j2
	}
	return nil
}

// runTask scans one (block, shard) cell: every row of the block against
// every shard column inside the row's norm window, sweeping outward from a
// shared anchor so the nearest-norm (likeliest) candidates are visited
// first and the live bounds collapse early.
func (p *blockPlan) runTask(task int, c *scanCounters, scr *blockScratch) {
	e := p.e
	bi, si := task/p.nshards, task%p.nshards
	lo := si * p.shardCols
	hi := lo + p.shardCols
	if n := len(e.wldNS); hi > n {
		hi = n
	}
	t0 := bi * p.blockRows
	t1 := t0 + p.blockRows
	if m := e.sec.rows; t1 > m {
		t1 = m
	}
	B := t1 - t0

	anyWin := false
	for r := 0; r < B; r++ {
		t := t0 + r
		ws, we := p.ws[t], p.we[t]
		if ws < lo {
			ws = lo
		}
		if we > hi {
			we = hi
		}
		if we < ws {
			ws, we = lo, lo
		}
		scr.start(r, ws, we, p.ub[t])
		if we > ws {
			anyWin = true
		}
	}
	if anyWin {
		// Anchor at the block's median norm position so both sweeps walk
		// outward through growing norm gaps for (almost) every row.
		anchor := e.secMid[t0+B/2]
		if anchor < lo {
			anchor = lo
		}
		if anchor > hi {
			anchor = hi
		}
		e.sweep(c, scr, nil, t0, B, anchor, hi, +1)
		e.sweep(c, scr, nil, t0, B, anchor-1, lo-1, -1)
	}
	base := t0*p.nshards + si
	for r := 0; r < B; r++ {
		cell := base + r*p.nshards
		p.d1[cell], p.j1[cell] = scr.d1[r], scr.j1[r]
		p.d2[cell], p.j2[cell] = scr.d2[r], scr.j2[r]
	}
}

// rescan recomputes security row i's lexicographic (best, runner-up) over
// the columns not in used: a one-row task over the whole pool, swept
// outward from the row's own norm position. There is no seeded cap, so the
// bound starts at +Inf and tightens from the row's own confirmations; each
// tightening still cuts the window edges in bulk. scr needs one slot.
func (e *engine) rescan(i int, used []bool, c *scanCounters, scr *blockScratch) (d1 float64, j1 int, d2 float64, j2 int) {
	t, n := e.rank[i], len(e.wldNS)
	mid := e.secMid[t]
	scr.start(0, 0, n, inf)
	e.sweep(c, scr, used, t, 1, mid, n, +1)
	e.sweep(c, scr, used, t, 1, mid-1, -1, -1)
	return scr.d1[0], scr.j1[0], scr.d2[0], scr.j2[0]
}

// sweepTile is the column-tile width of a sweep. Rows of a block revisit the
// same tile back to back, so one tile's hot stripes (norms, segment norms,
// packed prefixes) stay L1/L2-resident across the whole block while each row
// still runs a branch-light row-major inner loop over the tile.
const sweepTile = 256

// sweep walks column tiles from start toward stop (exclusive) in direction
// dir for the B scan-order rows from t0 (scratch slots 0..B-1). Within a
// tile every still-active row scans its in-window slice of the tile
// row-major — all per-row state in locals — through the staged rejection
// ladder, skipping the columns in used (nil in phase 1). A row's window
// edge moves inward whenever its bound tightens, pruning the remainder of
// the side in bulk; the row drops out once its edge is reached, and the
// sweep ends when no rows remain.
func (e *engine) sweep(c *scanCounters, scr *blockScratch, used []bool, t0, B, start, stop, dir int) {
	on := scr.onRight
	if dir < 0 {
		on = scr.onLeft
	}
	active := 0
	for r := 0; r < B; r++ {
		// Refresh this direction's far edge against the row's current bound
		// before the pass starts: the bound may have tightened during the
		// opposite pass, and this side is still entirely unvisited, so the
		// bulk accounting stays an exact partition of the task's window.
		t := t0 + r
		na, mid, b := e.secN[t], e.secMid[t], scr.b[r]
		if dir > 0 {
			if lo := max(mid, scr.ws[r]); lo < scr.we[r] {
				weNew := e.windowRight(na, b, lo, scr.we[r])
				c.normPruned += int64(scr.we[r] - weNew)
				scr.we[r] = weNew
			}
		} else {
			if hi := min(mid, scr.we[r]); hi > scr.ws[r] {
				wsNew := e.windowLeft(na, b, scr.ws[r], hi)
				c.normPruned += int64(wsNew - scr.ws[r])
				scr.ws[r] = wsNew
			}
		}
		in := scr.ws[r] < scr.we[r] &&
			((dir > 0 && scr.we[r] > start) || (dir < 0 && scr.ws[r] <= start))
		on[r] = in
		if in {
			active++
		}
	}
	for tile := start; tile != stop && active > 0; {
		// Tile bounds [klo, khi) regardless of direction.
		var klo, khi, next int
		if dir > 0 {
			klo = tile
			khi = tile + sweepTile
			if khi > stop {
				khi = stop
			}
			next = khi
		} else {
			khi = tile + 1
			klo = khi - sweepTile
			if klo < stop+1 {
				klo = stop + 1
			}
			next = klo - 1
		}
		for r := 0; r < B; r++ {
			if !on[r] {
				continue
			}
			ks, ke := scr.ws[r], scr.we[r]
			if ks < klo {
				ks = klo
			}
			if ke > khi {
				ke = khi
			}
			if dir > 0 && ks >= scr.we[r] {
				on[r] = false
				active--
				continue
			}
			if dir < 0 && ke <= scr.ws[r] {
				on[r] = false
				active--
				continue
			}
			if ks >= ke {
				continue
			}
			if !e.scanRowTile(c, scr, used, r, t0+r, ks, ke, dir) {
				on[r] = false
				active--
			}
		}
		tile = next
	}
}

// Why the out-of-order scans still reproduce the reference exactly: the
// reference's ascending scan with strict-< updates computes the
// lexicographically smallest (distance, column) pair — on equal distances
// the earlier column wins — and, for the two-best variant, the two
// lexicographically smallest pairs. A scan may therefore visit columns in
// ANY order and produce identical results, provided (1) every update
// comparison is lexicographic on (distance, original column index), and
// (2) every rejection path — the bulk norm-window edges, the segment-norm
// bound, the prefix + tail-segment check, and the tail screen — rejects
// only candidates whose reference-order distance is guaranteed STRICTLY
// above the current bound, so a tie that would win by index can never be
// discarded. All four rejections here use strictly-greater comparisons on
// conservatively shaded/slacked bounds, which proves exactly that.

// scanRowTile runs scan-order row t (scratch slot r) over tile columns
// [ks, ke) in direction dir, with every per-row value hoisted into locals.
// It is the engine's only per-candidate rejection ladder; phase 1, rescans
// and KNNSelect all reach it through sweep. The ladder stays written out in
// this loop: Go does not inline a function of its size, and a per-candidate
// call would cost more than the cheap stages it wraps.
//
// There is no per-candidate norm-gap test: the row's window edges carry the
// norm bound instead. Each time a confirmation tightens the live bound, the
// current side's outward edge is re-derived by binary search over the
// sorted norms and the excluded columns are counted in bulk — O(log n) per
// tightening instead of O(1) per candidate, and tightenings are rare.
// Candidates on the non-monotone stretch between the sweep anchor and the
// row's own norm position are covered by the segment screen, whose bound
// dominates the plain norm gap (see nseg): any candidate a norm test could
// reject the segment test rejects too (the rejection is merely attributed
// to the segment stage).
//
// Columns in used are skipped after the O(1) segment test, so the test's
// loads are shared with the common reject path and only its survivors pay
// for the mask lookup.
//
// It returns false when the row has no columns left on this side.
func (e *engine) scanRowTile(c *scanCounters, scr *blockScratch, used []bool, r, t, ks, ke, dir int) bool {
	pw, tw := e.pw, e.tw
	na := e.secN[t]
	mid := e.secMid[t]
	seg := e.secSegs[t*nseg : t*nseg+nseg : t*nseg+nseg]
	rowS := e.secS.Row(t)
	pre, tail := rowS[:pw:pw], rowS[pw:]
	b := scr.b[r]
	d1, j1, d2, j2 := scr.d1[r], scr.j1[r], scr.d2[r], scr.j2[r]

	k, kend := ks, ke
	if dir < 0 {
		k, kend = ke-1, ks-1
	}
	for ; k != kend; k += dir {
		sg := e.wldSegs[k*nseg : k*nseg+nseg : k*nseg+nseg]
		g0 := seg[0] - sg[0]
		g1 := seg[1] - sg[1]
		g2 := seg[2] - sg[2]
		g3 := seg[3] - sg[3]
		g4 := seg[4] - sg[4]
		g5 := seg[5] - sg[5]
		g6 := seg[6] - sg[6]
		g7 := seg[7] - sg[7]
		g8 := seg[8] - sg[8]
		g9 := seg[9] - sg[9]
		g10 := seg[10] - sg[10]
		g11 := seg[11] - sg[11]
		g12 := seg[12] - sg[12]
		g13 := seg[13] - sg[13]
		g14 := seg[14] - sg[14]
		g15 := seg[15] - sg[15]
		// The tail segments cover exactly the tail dimensions, so their
		// squared gaps alone lower-bound the tail contribution — the same
		// tailLb the per-dimension screens fold in below.
		tailLb := (((g4*g4 + g5*g5) + (g6*g6 + g7*g7)) + ((g8*g8 + g9*g9) + (g10*g10 + g11*g11))) +
			((g12*g12 + g13*g13) + (g14*g14 + g15*g15))
		if (((g0*g0+g1*g1)+(g2*g2+g3*g3))+tailLb)*normBoundShade > b {
			c.normPruned++
			continue
		}
		if used != nil && used[e.orig[k]] {
			continue
		}
		c.evals++
		pd, ok := prefixScreen(pre, e.wldP[k*pw:k*pw+pw:k*pw+pw], tailLb*normBoundShade, b*screenSlack)
		if !ok {
			c.earlyExited++
			continue
		}
		if !screenTailDist2(tail, e.wldT[k*tw:k*tw+tw:k*tw+tw], pd, b) {
			c.earlyExited++
			continue
		}
		j := e.orig[k]
		sum := dist2(e.sec.Row(e.secOrder[t]), e.wld.Row(j))
		if sum < d1 || (sum == d1 && j < j1) {
			d2, j2 = d1, j1
			d1, j1 = sum, j
		} else if sum < d2 || (sum == d2 && j < j2) {
			d2, j2 = sum, j
		}
		if d2 < b {
			b = d2
			// The bound just tightened: re-derive this side's outward edge
			// over the monotone (past-mid) stretch of the sorted norms,
			// count the newly excluded columns in bulk, and stop the tile
			// loop at the new edge. The confirmed column always stays
			// inside the new window (its gap is below its own distance,
			// which is below the new bound).
			if dir > 0 {
				if lo := max(k+1, mid); lo < scr.we[r] {
					weNew := e.windowRight(na, b, lo, scr.we[r])
					c.normPruned += int64(scr.we[r] - weNew)
					scr.we[r] = weNew
					if kend > weNew {
						kend = weNew
					}
				}
			} else {
				if hi := min(k, mid); hi > scr.ws[r] {
					wsNew := e.windowLeft(na, b, scr.ws[r], hi)
					c.normPruned += int64(wsNew - scr.ws[r])
					scr.ws[r] = wsNew
					if kend < wsNew-1 {
						kend = wsNew - 1
					}
				}
			}
		}
	}
	scr.b[r] = b
	scr.d1[r], scr.j1[r], scr.d2[r], scr.j2[r] = d1, j1, d2, j2
	if dir > 0 {
		return scr.we[r] > ke
	}
	return scr.ws[r] < ks
}

// windowRight returns the first position in [lo, hi) whose shaded norm gap
// above na strictly exceeds b. The caller guarantees lo is at or past the
// row's norm position, where the gap is non-decreasing.
func (e *engine) windowRight(na, b float64, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(d int) bool {
		g := e.wldNS[lo+d] - na
		return g*g*normBoundShade > b
	})
}

// windowLeft returns the first position in [lo, hi) whose shaded norm gap
// below na no longer exceeds b. The caller guarantees hi is at or before the
// row's norm position, where the gap is non-increasing.
func (e *engine) windowLeft(na, b float64, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(d int) bool {
		g := na - e.wldNS[lo+d]
		return g*g*normBoundShade <= b
	})
}
