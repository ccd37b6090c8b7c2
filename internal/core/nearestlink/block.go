package nearestlink

import (
	"context"
	"sort"

	"patchdb/internal/par"
)

// Blocked candidate generation — the engine's one scan kernel.
//
// Algorithm 1 needs one search: the exact lexicographically smallest
// (distance, column) pairs of a security row over the columns still unused.
// The kernel keeps a list of the depth smallest per row (a candidate list).
// Phase 1 runs it for every row over the whole pool at depth 2; deepening
// reruns it at depth listDepth for the rows certain to use up their phase-1
// list (deepRows); the greedy phase reruns it at depth listDepth for one
// row over the unused columns when a collision uses up a full list (a
// rescan). All of them are blockPlans run through the same task body
// (runTask), sweep and rejection ladder (scanRowTile), and every scan starts
// the same way: over the whole pool at bound +Inf, tightened only by its own
// confirmations.
//
// Seed-major blocking: the plan's security rows, in scan (ascending-norm)
// order, are grouped into blocks of blockRows. One pass over a wild column
// evaluates the whole block against it, so the column's stripe data
// (segment norms, row) is loaded once per block instead of
// once per row, and the block's own row data stays L1-resident across the
// pass. A block is one task over the whole pool; workers claim the tasks
// in index order (par.For), and each task writes its rows' lists straight
// into the candidate lists, so every row has exactly one writer.
//
// Exactness: a row's live bound is +Inf until its list holds depth entries
// and then the running depth-th best over the columns it has confirmed, an
// upper bound on the row's final depth-th best. Every rejection is
// strictly above that bound, so no member of the row's true list is ever
// rejected; each survives to reference-order confirmation, and the
// lexicographic insertion reproduces exactly the depth smallest (distance,
// column) pairs the reference's full ascending scan would order.
//
// Determinism of the accounting: a plan's tasks are a pure function of its
// rows — never of Workers — each task's visit order and pruning bounds are
// fixed, and the int64 counters merge by addition. Phase 1's results, and
// with them the rows deepening scans, do not depend on Workers either;
// rescans run serially in the greedy phase's deterministic order. Stats are
// therefore bit-identical at any worker count.

// blockRows is the seed-major block height: how many consecutive scan-order
// security rows of a plan share one pass over a wild column.
const blockRows = 16

// listDepth is the candidate-list depth of deepening and rescans: how many
// of a row's smallest (distance, column) pairs the greedy phase can fall
// back on before it has to rescan the row. Deeper lists absorb more
// collisions, at the price of a looser pruning bound (the depth-th best
// instead of the second) while they are filled.
const listDepth = 8

// insertPair inserts (d, j) into the lexicographically sorted list
// ld[:n], lj[:n] of capacity len(ld) when it ranks among the len(ld)
// smallest pairs, and returns the new length.
func insertPair(ld []float64, lj []int, n int, d float64, j int) int {
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

// blockPlan is one blocked scan over the whole pool: the scan-order rows
// whose lists it fills, in blocks of blockRows, and the columns it skips.
type blockPlan struct {
	e     *engine
	rows  []int  // scan-order positions, ascending
	depth int    // list entries kept per row
	used  []bool // columns to skip: nil except in a rescan
}

// blockScratch is one worker's reusable per-task state, sized to the block
// height and list depth once per worker.
type blockScratch struct {
	depth           int
	ws, we          []int // row norm windows [ws, we)
	d               []float64
	j               []int // slot r's list at [r*depth, r*depth+n[r])
	n               []int
	b               []float64 // live pruning bound: the running depth-th best
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

// run executes the plan's blocks on o.Workers workers.
func (p *blockPlan) run(ctx context.Context, o Options, stats *Stats, cands *candidates) error {
	tasks := (len(p.rows) + blockRows - 1) / blockRows
	workers := min(o.Workers, tasks)
	counters := make([]scanCounters, workers)
	scratch := make([]*blockScratch, workers)
	err := par.For(ctx, tasks, workers, func(w, task int) {
		if scratch[w] == nil {
			scratch[w] = newBlockScratch(blockRows, p.depth)
		}
		// The kernel counts into a local: the workers' slots share cache
		// lines, and counting into them directly would thrash those lines.
		var c scanCounters
		p.runTask(task, &c, scratch[w], cands)
		counters[w].add(c)
	})
	for _, c := range counters {
		stats.addScan(c)
	}
	if err != nil {
		return canceled(ctx)
	}
	return nil
}

// runTask scans block task: every row of the block against every column
// of the pool inside the row's norm window, sweeping outward from a shared
// anchor so the nearest-norm (likeliest) candidates are visited first and
// the live bounds collapse early, then writes the rows' candidate lists.
func (p *blockPlan) runTask(task int, c *scanCounters, scr *blockScratch, cands *candidates) {
	e, n := p.e, len(p.e.wldNS)
	rows := p.rows[task*blockRows : min((task+1)*blockRows, len(p.rows))]
	for r := range rows {
		scr.ws[r], scr.we[r], scr.n[r], scr.b[r] = 0, n, 0, inf
	}
	// Anchor at the block's median norm position so both sweeps walk
	// outward through growing norm gaps for (almost) every row.
	anchor := e.secMid[rows[len(rows)/2]]
	e.sweep(c, scr, p.used, rows, anchor, n, +1)
	e.sweep(c, scr, p.used, rows, anchor-1, -1, -1)
	for r, t := range rows {
		i := e.secOrder[t]
		copy(cands.d[i*listDepth:i*listDepth+p.depth], scr.d[r*p.depth:(r+1)*p.depth])
		copy(cands.j[i*listDepth:i*listDepth+p.depth], scr.j[r*p.depth:(r+1)*p.depth])
		cands.n[i], cands.depth[i], cands.pos[i] = scr.n[r], p.depth, 0
	}
}

// sweepTile is the column-tile width of a sweep. Rows of a block revisit the
// same tile back to back, so one tile's hot stripes (norms, segment norms,
// row prefixes) stay L1/L2-resident across the whole block while each row
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
		// bulk accounting stays an exact partition of the row's window.
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
// bound, and the screen's prefix + tail-segment and full-sum checks —
// rejects only candidates whose reference-order distance is guaranteed
// STRICTLY above the current bound, so a tie that would win by index can
// never be discarded. All of them use strictly-greater comparisons on
// conservatively shaded/slacked bounds, which proves exactly that.

// scanRowTile runs scan-order row t (scratch slot r) over tile columns
// [ks, ke) in direction dir, with every per-row value hoisted into locals.
// It is the engine's only per-candidate rejection ladder; phase 1,
// deepening and rescans all reach it through sweep. The ladder stays
// written out in this loop: Go does not inline a function of its size, and
// a per-candidate call would cost more than the cheap stages it wraps.
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
	pw, dim := e.pw, e.wld.cols
	na := e.secN[t]
	mid := e.secMid[t]
	seg := e.secSegs[t*nseg : t*nseg+nseg : t*nseg+nseg]
	row := e.sec.row(e.secOrder[t])
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
		// squared gaps alone lower-bound the tail contribution — the
		// tailLb the screen adds over the prefix below.
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
		w := e.wldW[k*dim : k*dim+dim : k*dim+dim]
		if !screen(row, w, pw, tailLb*normBoundShade, b*screenSlack) {
			c.earlyExited++
			continue
		}
		j := e.orig[k]
		ln = insertPair(ld, lj, ln, dist2(row, w), j)
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
