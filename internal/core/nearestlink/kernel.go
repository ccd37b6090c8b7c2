package nearestlink

import (
	"math"
	"slices"
	"sort"
)

// Distance kernels. Two precision regimes coexist here, and the split is
// what keeps the fast engine's output bit-identical to the reference
// transcription of Algorithm 1:
//
//   - Bounds (norm lower bound, screening rejection) may be computed any
//     fast way, because they only ever *reject* candidates, and they are
//     shaded/slacked so that rejection is conservative under rounding.
//   - Accepted distances — every value that can reach a Link or an argmin
//     comparison — come from dist2, the reference accumulation order: a
//     single accumulator over ascending dimensions. Candidates that survive
//     screening are re-evaluated with dist2 before any comparison the
//     reference would make, so the engine's comparisons see exactly the
//     reference's float64 values.

// normBoundShade scales the norm lower bound down by a relative margin many
// orders of magnitude larger than the worst-case rounding error of the bound
// computation (~60-term dot products: tens of ulps). Shading keeps
// (‖a‖−‖b‖)² a true lower bound of ‖a−b‖² even in floating point, so the
// prune can never reject a candidate the reference would have accepted.
const normBoundShade = 1 - 1e-9

// dot is a blocked, unrolled dot product with four independent accumulators
// (instruction-level parallelism). It is used for row norms — bound inputs
// only — never for values that must match the reference summation order.
func dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(a); j += 4 {
		x := a[j : j+4 : j+4]
		y := b[j : j+4 : j+4]
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
	}
	for ; j < len(a); j++ {
		s0 += a[j] * b[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// dist2 is the straightforward squared Euclidean distance — the reference
// accumulation order every accepted distance must reproduce.
func dist2(a, b []float64) float64 {
	sum := 0.0
	for j := range a {
		d := a[j] - b[j]
		sum += d * d
	}
	return sum
}

// screenSlack inflates the screening rejection threshold by a relative
// margin far above the worst-case reordering error of a float64 summation
// of ~60 non-negative terms (|s_any_order − s_reference_order| ≤
// 2γ_n·Σterms ≈ 1.3e-14·sum for n = 60). A candidate is rejected only when
// its screened (partial) sum exceeds bound·screenSlack, which proves the
// reference-order sum strictly exceeds bound — so screening can never
// reject a candidate the reference scan would have accepted.
const screenSlack = 1 + 1e-12

// screenTailDist2 continues a screened evaluation over the packed tail
// dimensions, starting from the already-computed prefix partial sum, with
// four independent accumulators and a rejection checkpoint after every
// 16-dimension block. It reports whether the candidate survives: the
// combined sum is an any-order summation of exactly the rounded
// non-negative terms dist2 adds over all dimensions, so a strict excess
// over bound·screenSlack proves the reference-order total strictly exceeds
// bound — such a candidate can never displace the current best, nor tie
// it. The comparisons are strictly-greater (not ≥) so a bound of 0 cannot
// silently reject an exact-duplicate candidate whose smaller column index
// would win the reference tie-break. A survivor MAY beat or tie bound; the
// caller confirms it with the reference-order dist2.
func screenTailDist2(a, b []float64, prefix, bound float64) bool {
	limit := bound * screenSlack
	s0 := prefix
	var s1, s2, s3 float64
	j := 0
	for ; j+16 <= len(a); j += 16 {
		x := a[j : j+16 : j+16]
		y := b[j : j+16 : j+16]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d4 := x[4] - y[4]
		d5 := x[5] - y[5]
		d6 := x[6] - y[6]
		d7 := x[7] - y[7]
		s0 += d4 * d4
		s1 += d5 * d5
		s2 += d6 * d6
		s3 += d7 * d7
		d8 := x[8] - y[8]
		d9 := x[9] - y[9]
		d10 := x[10] - y[10]
		d11 := x[11] - y[11]
		s0 += d8 * d8
		s1 += d9 * d9
		s2 += d10 * d10
		s3 += d11 * d11
		d12 := x[12] - y[12]
		d13 := x[13] - y[13]
		d14 := x[14] - y[14]
		d15 := x[15] - y[15]
		s0 += d12 * d12
		s1 += d13 * d13
		s2 += d14 * d14
		s3 += d15 * d15
		if s := (s0 + s1) + (s2 + s3); s > limit {
			return false
		}
	}
	for ; j+4 <= len(a); j += 4 {
		x := a[j : j+4 : j+4]
		y := b[j : j+4 : j+4]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(a); j++ {
		d := a[j] - b[j]
		s0 += d * d
	}
	return (s0+s1)+(s2+s3) <= limit
}

// scanCounters accumulates per-worker pruning accounting, merged into Stats
// after parallel phases.
type scanCounters struct {
	evals       int64 // evaluations started (survived every cheap bound)
	normPruned  int64 // rejected by the norm window or segment-norm bound
	earlyExited int64 // aborted by the prefix or tail partial-distance screen
}

func (c *scanCounters) add(o scanCounters) {
	c.evals += o.evals
	c.normPruned += o.normPruned
	c.earlyExited += o.earlyExited
}

// screenPrefix is the width of the packed prefix array: the first
// screenPrefix dimensions of every norm-sorted wild row, stored
// contiguously. A 60-dim float64 row is 480 bytes — 8 cache lines — but
// most candidates are rejected within the first block of the screen, so the
// scan's memory traffic is dominated by row fetches that were never going to
// survive. The prefix array packs the rejecting dimensions at 128 bytes per
// candidate in walk order, cutting the traffic of the common reject path ~4×
// and making it sequential; only prefix survivors touch the full row.
const screenPrefix = 16

// The segment-norm split: segPre even splits of the screen prefix and
// segTail of the tail, per row. For rows a, b with segment-norm vectors u,
// w the bound Σ_g(u_g−w_g)² = ‖u−w‖² satisfies ‖u−w‖² ≤ ‖a−b‖² (reverse
// triangle inequality per segment) and ‖u−w‖² ≥ (‖u‖−‖w‖)² = (‖a‖−‖b‖)²,
// so it is a valid O(1) filter that always dominates the plain norm gap and
// also rejects candidates whose mass sits in different feature regions even
// when their total norms match. Because the tail segments cover exactly the
// tail dimensions, their squared gaps alone lower-bound the tail's
// contribution — the bound the prefix screen folds in.
const (
	segPre  = 4
	segTail = 12
	nseg    = segPre + segTail
)

// engine bundles the weighted flat matrices and a search-ready layout of
// the problem:
//
//   - The wild pool is stored sorted by ascending row norm (wldNS; orig
//     maps a sorted position back to its row in wld, which names the
//     column inside the engine; cols maps the current pool columns to those
//     rows once a round has compacted the pool), split into packed stripes
//     that match the access pattern of the staged rejection: wldSegs (nseg
//     segment norms, 128 B/candidate), wldP (the first pw dimensions, see
//     screenPrefix), and wldT (the remaining tw dimensions, touched only by
//     prefix survivors). A scan walks each security row's norm
//     neighborhood outward from its binary-searched position, so every
//     column outside the current bound's norm window is skipped in bulk,
//     and each surviving stage reads only the stripe it needs —
//     sequentially, because stripes are packed in walk order.
//   - The security rows are mirrored in scan order (ascending norm, index
//     t): secS holds the rows and secSegs their segment norms, so the rows
//     of one block are contiguous, and consecutive rows walk strongly
//     overlapping norm windows.
//
// Both keep the feature order: the screens may sum squared terms in any
// order (their slack covers reordering error), so none is fitted to the
// pool. Reference-order confirmation always reads the original matrices.
type engine struct {
	sec, wld *matrix
	maxAbs   []float64 // raw max|a_j| over security ∪ wild; nil without normalization
	maxTies  []int     // per dimension, the rows whose raw |a_j| equals maxAbs[j]
	cleared  bool      // norms and segment norms zeroed (see maxBoundNorm)
	secOrder []int     // scan order: security rows by (norm, index)
	rank     []int     // original security row -> scan-order position
	secN     []float64 // security row norms, scan order
	secMid   []int     // each scan-order row's norm position in wldNS
	secS     *matrix   // security rows, scan order
	secSegs  []float64 // m×nseg segment norms of secS rows
	wldNS    []float64 // sorted wild row norms, ascending
	orig     []int     // sorted position -> wld matrix row
	cols     []int     // current pool column -> wld matrix row, ascending; nil: the identity
	wldSegs  []float64 // n×nseg packed segment norms, walk order
	wldP     []float64 // n×pw packed prefixes, walk order
	wldT     []float64 // n×tw packed tails, walk order
	pw, tw   int       // stripe widths: pw+tw = cols
}

func newEngine(sec, wld *matrix, secN, wldN []float64, workers int, buf *buffers) *engine {
	pw := min(screenPrefix, wld.cols)
	e := &engine{sec: sec, wld: wld, pw: pw, tw: wld.cols - pw}

	// Order the pool by (norm, original index) — deterministic, so every
	// Stats counter is a pure function of the input.
	e.orig = normOrder(wldN)

	n := wld.rows
	buf.stripes = take(buf.stripes, n*(1+nseg+pw+e.tw))
	st := buf.stripes
	e.wldNS, st = st[:n:n], st[n:]
	e.wldSegs, st = st[:n*nseg:n*nseg], st[n*nseg:]
	e.wldP, e.wldT = st[:n*pw:n*pw], st[n*pw:]
	forChunks(workers, n, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			j := e.orig[k]
			row := wld.row(j)
			pre := e.wldP[k*pw : (k+1)*pw]
			tail := e.wldT[k*e.tw : (k+1)*e.tw]
			copy(pre, row[:pw])
			copy(tail, row[pw:])
			fillSegNorms(e.wldSegs[k*nseg:(k+1)*nseg], pre, tail)
			e.wldNS[k] = wldN[j]
		}
	})
	e.mirror(workers, secN, buf)
	// Both norm orders are ascending, so their last entries are the maxima.
	if e.wldNS[n-1] > maxBoundNorm || e.secN[sec.rows-1] > maxBoundNorm {
		e.cleared = true
		clear(e.wldNS)
		clear(e.secN)
		clear(e.wldSegs)
		clear(e.secSegs)
	}
	return e
}

// mirror lays the security rows out for scanning, given their norms secN in
// row order: the scan order by (norm, index), each row's rank in it, and per
// scan-order row its norm, its position in the sorted pool norms, its
// copy and that copy's segment norms.
func (e *engine) mirror(workers int, secN []float64, buf *buffers) {
	m, pw := e.sec.rows, e.pw
	e.secOrder = normOrder(secN)
	e.rank = make([]int, m)
	e.secN = make([]float64, m)
	e.secMid = make([]int, m)
	buf.secS = take(buf.secS, m*e.sec.cols)
	e.secS = &matrix{rows: m, cols: e.sec.cols, data: buf.secS}
	e.secSegs = make([]float64, m*nseg)
	forChunks(workers, m, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			i := e.secOrder[t]
			e.rank[i] = t
			e.secN[t] = secN[i]
			e.secMid[t] = sort.SearchFloat64s(e.wldNS, secN[i])
			rowS := e.secS.row(t)
			copy(rowS, e.sec.row(i))
			fillSegNorms(e.secSegs[t*nseg:(t+1)*nseg], rowS[:pw], rowS[pw:])
		}
	})
}

// maxBoundNorm is the largest row norm the norm-window and segment bounds
// are used at. Up to it no squared gap overflows, so the shading argument
// holds. Past it a norm can overflow to +Inf while the distance it bounds
// is finite (possible only without normalization), so newEngine zeroes
// every norm and segment norm and only the partial-distance screens reject
// (DESIGN.md §5.2).
var maxBoundNorm = math.Sqrt(math.MaxFloat64) / 2

// normOrder returns the row indices sorted by (norm, index). Norms are
// finite or +Inf, never NaN, so this is a total order and any sort yields
// the same permutation; sorting packed keys keeps the comparisons off the
// norms slice.
func normOrder(norms []float64) []int {
	type key struct {
		norm float64
		i    int
	}
	keys := make([]key, len(norms))
	for i, nv := range norms {
		keys[i] = key{nv, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.norm < b.norm:
			return -1
		case a.norm > b.norm:
			return 1
		}
		return a.i - b.i
	})
	order := make([]int, len(norms))
	for k, key := range keys {
		order[k] = key.i
	}
	return order
}

// fillSegNorms writes the nseg segment norms of one row: the Euclidean
// norms of segPre even contiguous splits of its prefix, then of segTail
// even splits of its tail (the same deterministic ⌊len·s/parts⌋ boundaries
// on both sides of every comparison).
func fillSegNorms(dst, pre, tail []float64) {
	fillEvenSegNorms(dst[:segPre], pre)
	fillEvenSegNorms(dst[segPre:nseg], tail)
}

func fillEvenSegNorms(dst, row []float64) {
	parts := len(dst)
	for s := 0; s < parts; s++ {
		lo, hi := len(row)*s/parts, len(row)*(s+1)/parts
		sum := 0.0
		for _, v := range row[lo:hi] {
			sum += v * v
		}
		dst[s] = math.Sqrt(sum)
	}
}

// prefixScreen evaluates the prefix partial distance with a rejection
// checkpoint every 8 dimensions: the candidate is rejected as soon as
// partial + add exceeds limit. Each checkpoint applies exactly the caller's
// final test, and the partial sum is monotone under the appended
// non-negative terms (adding t ≥ 0 to an accumulator never decreases its
// rounded value, and the final accumulator combination is monotone in each
// part) — so a midway rejection coincides with the decision the full prefix
// sum would have produced. Only wasted arithmetic is skipped; the rejected
// set, and with it every Stats counter, is unchanged. Its terms are a
// subset of the non-negative terms dist2 adds, so (up to the reordering
// error screenSlack covers) the partial sum lower-bounds the full
// reference-order distance and may reject — never accept — candidates.
func prefixScreen(a, b []float64, add, limit float64) (pd float64, live bool) {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+8 <= len(a); j += 8 {
		x := a[j : j+8 : j+8]
		y := b[j : j+8 : j+8]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d4 := x[4] - y[4]
		d5 := x[5] - y[5]
		d6 := x[6] - y[6]
		d7 := x[7] - y[7]
		s0 += d4 * d4
		s1 += d5 * d5
		s2 += d6 * d6
		s3 += d7 * d7
		if s := (s0 + s1) + (s2 + s3); s+add > limit {
			return s, false
		}
	}
	for ; j+4 <= len(a); j += 4 {
		x := a[j : j+4 : j+4]
		y := b[j : j+4 : j+4]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(a); j++ {
		d := a[j] - b[j]
		s0 += d * d
	}
	pd = (s0 + s1) + (s2 + s3)
	return pd, pd+add <= limit
}
