package nearestlink

import (
	"context"
	"math"
	"sort"

	"patchdb/internal/par"
)

// Blocked, sharded candidate generation — the engine's one scan kernel.
//
// Algorithm 1 needs one search: the exact lexicographically smallest
// (distance, column) pairs of a security row over the columns still unused.
// The kernel keeps a list of the depth smallest per row (a candidate list).
// Phase 1 runs it for every row over the whole pool at depth 2; deepening
// reruns it at depth listDepth for the rows certain to use up their phase-1
// list (deepRows); the greedy phase reruns it at depth listDepth for one
// row over the unused columns when a collision uses up a full list (a
// rescan);
// KNNSelect is phase 1's best column. All of them go through the same sweep
// and the same rejection ladder (scanRowTile).
//
// A scan over many rows restructures the work on two axes so each stripe
// load is amortized and the grid parallelizes cleanly:
//
//   - Seed-major blocking: the plan's security rows, in scan (ascending-
//     norm) order, are grouped into blocks of defaultBlockRows. One pass
//     over a wild column evaluates the whole block against it, so the
//     column's stripe data (segment norms, packed prefix, tail) is loaded
//     once per block instead of once per row, and the block's own row data
//     stays L1-resident across the pass.
//   - Wild-pool sharding: the norm-sorted pool is cut into contiguous
//     shards of defaultShardCols columns. A (block, shard) pair is one
//     independent task; workers claim the tasks in index order
//     (par.For). Each task computes the block rows' lists over its shard
//     only, and a deterministic merge folds the per-shard lists into the
//     global list per row.
//
// A rescan is a one-row task over the whole pool: its window starts as the
// full pool, its bound as +Inf (see seedBounds), and the used mask skips
// the taken columns.
//
// Exactness of the merge: every rejection inside a task is strictly above
// min(ub, dK_task) where ub (the seeded bound) is ≥ the row's FINAL global
// depth-th best and dK_task, a running depth-th best over a subset of
// columns, likewise — so no member of the row's true global list is ever
// rejected in any shard. Each survives to reference-order confirmation in
// its own shard and ranks in its shard's top depth (only global members can
// out-rank it there), and the lexicographic merge over all per-shard lists
// therefore reproduces exactly the depth smallest (distance, column) pairs
// the reference's full ascending scan would order.
//
// Determinism of the accounting: a plan's task grid is a pure function of
// (its rows, cols, blockRows, shardCols) — never of Workers — each task's
// visit order and pruning bounds are fixed (bounds start from the row's
// seeded cap and tighten only within the task), and the int64 counters
// merge by addition. Phase 1's results, and with them the rows deepening
// scans, do not depend on Workers either; rescans run serially in the
// greedy phase's deterministic order. Stats are therefore bit-identical at
// any worker count; blockRows and shardCols may change counter values
// (they move pruning decisions between stages) but never the links.

// defaultBlockRows is the seed-major block height: how many consecutive
// scan-order security rows of a plan share one pass over a wild column.
const defaultBlockRows = 16

// defaultShardCols is the wild-pool shard width in norm-sorted columns.
// Sized so a shard's hot stripes stay cache-resident while the task grid
// still offers blocks×shards-way parallelism at bench shapes.
const defaultShardCols = 131072

// listDepth is the candidate-list depth of deepening and rescans: how many
// of a row's smallest (distance, column) pairs the greedy phase can fall
// back on before it has to rescan the row. Deeper lists absorb more
// collisions, at the price of a looser pruning bound (the depth-th best
// instead of the second) while they are filled.
const listDepth = 8

// insertPair inserts (d, j) into the lexicographically sorted list
// ld[:n], lj[:n] of capacity len(ld) when it ranks among the len(ld)
// smallest pairs, and returns the new length. A +Inf distance never enters,
// as it never wins the reference's strict-< scan.
func insertPair(ld []float64, lj []int, n int, d float64, j int) int {
	if d == inf {
		return n
	}
	k := n
	for k > 0 && (d < ld[k-1] || (d == ld[k-1] && j < lj[k-1])) {
		k--
	}
	if k == len(ld) {
		return n
	}
	if n < len(ld) {
		n++
	}
	copy(ld[k+1:n], ld[k:n-1])
	copy(lj[k+1:n], lj[k:n-1])
	ld[k], lj[k] = d, j
	return n
}

// candidates holds every security row's candidate list: its
// lexicographically smallest (distance, column) pairs over the columns that
// were free when the list was filled, best first, indexed by original row.
type candidates struct {
	d     []float64 // row i's entries at [i*listDepth, i*listDepth+n[i])
	j     []int
	n     []int // entries held
	depth []int // entries asked for; fewer held means none is left out
	pos   []int // greedy cursor: the first entry not known to be taken
}

func newCandidates(m int) *candidates {
	return &candidates{
		d: make([]float64, m*listDepth), j: make([]int, m*listDepth),
		n: make([]int, m), depth: make([]int, m), pos: make([]int, m),
	}
}

// blockPlan is one blocked scan: per-row seeded bounds and norm windows,
// and the per-(row, shard) list grid. Plan rows are indexed by their
// position pi in rows.
type blockPlan struct {
	e         *engine
	rows      []int // scan-order positions, ascending
	depth     int   // list entries kept per row
	blockRows int
	shardCols int
	nblocks   int
	nshards   int

	ub     []float64 // seeded bound on each row's final depth-th best
	ws, we []int     // global norm window [ws, we) implied by ub

	// Per-(pi, shard) lists, written by exactly one task each: cell
	// pi*nshards+s holds cn[cell] entries from cell*depth.
	cd []float64
	cj []int
	cn []int
}

// newBlockPlan plans a scan of the scan-order rows at depth under the
// seeded bounds ub (one per row), and counts the columns outside each
// row's norm window as norm-pruned: every task skips them without even an
// O(1) test.
func newBlockPlan(e *engine, o Options, rows []int, depth int, ub []float64, stats *Stats) *blockPlan {
	m, n := len(rows), len(e.wldNS)
	p := &blockPlan{e: e, rows: rows, depth: depth, blockRows: o.blockRows, shardCols: o.shardCols, ub: ub}
	if p.blockRows <= 0 {
		p.blockRows = defaultBlockRows
	}
	if p.shardCols <= 0 {
		p.shardCols = defaultShardCols
	}
	p.nblocks = (m + p.blockRows - 1) / p.blockRows
	p.nshards = (n + p.shardCols - 1) / p.shardCols
	p.ws = make([]int, m)
	p.we = make([]int, m)
	for pi, t := range rows {
		ws, we := e.normWindow(e.secN[t], e.secMid[t], ub[pi])
		p.ws[pi], p.we[pi] = ws, we
		stats.NormPruned += int64(n - (we - ws))
	}
	cells := m * p.nshards
	p.cd = make([]float64, cells*depth)
	p.cj = make([]int, cells*depth)
	p.cn = make([]int, cells)
	return p
}

// normWindow returns the half-open column range [ws, we) that survives the
// bulk norm-window test at bound b: exactly the sorted positions whose
// shaded norm gap does not prove them strictly worse than b. Every list
// member always lies inside (its distance is ≤ √b, and the norm gap
// lower-bounds the distance).
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
// height and list depth once per worker.
type blockScratch struct {
	depth           int
	ws, we          []int // row windows clamped to the task's shard
	d               []float64
	j               []int // slot r's list at [r*depth, r*depth+n[r])
	n               []int
	b               []float64 // live pruning bound: min(seeded cap, running depth-th best)
	onRight, onLeft []bool
}

func newBlockScratch(block, depth int) *blockScratch {
	return &blockScratch{
		depth: depth,
		ws:    make([]int, block), we: make([]int, block),
		d: make([]float64, block*depth), j: make([]int, block*depth),
		n:       make([]int, block),
		b:       make([]float64, block),
		onRight: make([]bool, block), onLeft: make([]bool, block),
	}
}

// start resets slot r for a scan over the window [ws, we) under bound b.
func (s *blockScratch) start(r, ws, we int, b float64) {
	s.ws[r], s.we[r] = ws, we
	s.n[r] = 0
	s.b[r] = b
}

// run executes the task grid on o.Workers workers, then merges each row's
// per-shard lists into its candidate list.
func (p *blockPlan) run(ctx context.Context, o Options, stats *Stats, cands *candidates) error {
	tasks := p.nblocks * p.nshards
	workers := min(o.Workers, tasks)
	counters := make([]scanCounters, workers)
	scratch := make([]*blockScratch, workers)
	err := par.For(ctx, tasks, workers, func(w, task int) {
		if scratch[w] == nil {
			scratch[w] = newBlockScratch(p.blockRows, p.depth)
		}
		// The kernel counts into a local: the workers' slots share cache
		// lines, and counting into them directly would thrash those lines.
		var c scanCounters
		p.runTask(task, &c, scratch[w])
		counters[w].add(c)
	})
	for _, c := range counters {
		stats.addScan(c)
	}
	if err != nil {
		return canceled(ctx)
	}

	// Deterministic merge, ascending shard order: the global list is the
	// lexicographic top depth over the union of every shard's lists.
	for pi, t := range p.rows {
		i := p.e.secOrder[t]
		ld := cands.d[i*listDepth : i*listDepth+p.depth]
		lj := cands.j[i*listDepth : i*listDepth+p.depth]
		n := 0
		for cell := pi * p.nshards; cell < (pi+1)*p.nshards; cell++ {
			for k := cell * p.depth; k < cell*p.depth+p.cn[cell]; k++ {
				n = insertPair(ld, lj, n, p.cd[k], p.cj[k])
			}
		}
		cands.n[i], cands.depth[i], cands.pos[i] = n, p.depth, 0
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
	p0 := bi * p.blockRows
	p1 := p0 + p.blockRows
	if m := len(p.rows); p1 > m {
		p1 = m
	}
	rows := p.rows[p0:p1]

	anyWin := false
	for r := range rows {
		ws, we := p.ws[p0+r], p.we[p0+r]
		if ws < lo {
			ws = lo
		}
		if we > hi {
			we = hi
		}
		if we < ws {
			ws, we = lo, lo
		}
		scr.start(r, ws, we, p.ub[p0+r])
		if we > ws {
			anyWin = true
		}
	}
	if anyWin {
		// Anchor at the block's median norm position so both sweeps walk
		// outward through growing norm gaps for (almost) every row.
		anchor := e.secMid[rows[len(rows)/2]]
		if anchor < lo {
			anchor = lo
		}
		if anchor > hi {
			anchor = hi
		}
		e.sweep(c, scr, nil, rows, anchor, hi, +1)
		e.sweep(c, scr, nil, rows, anchor-1, lo-1, -1)
	}
	for r := range rows {
		cell := (p0+r)*p.nshards + si
		p.cn[cell] = scr.n[r]
		copy(p.cd[cell*p.depth:(cell+1)*p.depth], scr.d[r*p.depth:(r+1)*p.depth])
		copy(p.cj[cell*p.depth:(cell+1)*p.depth], scr.j[r*p.depth:(r+1)*p.depth])
	}
}

// rescan refills security row i's candidate list to listDepth over the
// columns not in used: a one-row task over the whole pool, swept outward
// from the row's own norm position. There is no seeded cap, so the bound
// starts at +Inf and tightens from the row's own confirmations; each
// tightening still cuts the window edges in bulk. scr needs one slot of
// depth listDepth.
func (e *engine) rescan(i int, used []bool, c *scanCounters, scr *blockScratch, cands *candidates) {
	t, n := e.rank[i], len(e.wldNS)
	rows := []int{t}
	mid := e.secMid[t]
	scr.start(0, 0, n, inf)
	e.sweep(c, scr, used, rows, mid, n, +1)
	e.sweep(c, scr, used, rows, mid-1, -1, -1)
	copy(cands.d[i*listDepth:(i+1)*listDepth], scr.d[:listDepth])
	copy(cands.j[i*listDepth:(i+1)*listDepth], scr.j[:listDepth])
	cands.n[i], cands.depth[i], cands.pos[i] = scr.n[0], listDepth, 0
}

// sweepTile is the column-tile width of a sweep. Rows of a block revisit the
// same tile back to back, so one tile's hot stripes (norms, segment norms,
// packed prefixes) stay L1/L2-resident across the whole block while each row
// still runs a branch-light row-major inner loop over the tile.
const sweepTile = 256

// sweep walks column tiles from start toward stop (exclusive) in direction
// dir for the scan-order rows (scratch slot r scans rows[r]). Within a
// tile every still-active row scans its in-window slice of the tile
// row-major — all per-row state in locals — through the staged rejection
// ladder, skipping the columns in used (nil in phase 1). A row's window
// edge moves inward whenever its bound tightens, pruning the remainder of
// the side in bulk; the row drops out once its edge is reached, and the
// sweep ends when no rows remain.
func (e *engine) sweep(c *scanCounters, scr *blockScratch, used []bool, rows []int, start, stop, dir int) {
	on := scr.onRight
	if dir < 0 {
		on = scr.onLeft
	}
	active := 0
	for r, t := range rows {
		// Refresh this direction's far edge against the row's current bound
		// before the pass starts: the bound may have tightened during the
		// opposite pass, and this side is still entirely unvisited, so the
		// bulk accounting stays an exact partition of the task's window.
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
		for r, t := range rows {
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
			if !e.scanRowTile(c, scr, used, r, t, ks, ke, dir) {
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
// the earlier column wins — and, for a candidate list of depth k, the k
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
// It is the engine's only per-candidate rejection ladder; phase 1,
// deepening, rescans and KNNSelect all reach it through sweep. The ladder stays written out in
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
	rowS := e.secS.row(t)
	pre, tail := rowS[:pw:pw], rowS[pw:]
	b := scr.b[r]
	depth := scr.depth
	ld := scr.d[r*depth : (r+1)*depth : (r+1)*depth]
	lj := scr.j[r*depth : (r+1)*depth : (r+1)*depth]
	ln := scr.n[r]

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
		sum := dist2(e.sec.row(e.secOrder[t]), e.wld.row(j))
		ln = insertPair(ld, lj, ln, sum, j)
		if ln == depth && ld[depth-1] < b {
			b = ld[depth-1]
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
	scr.n[r] = ln
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
