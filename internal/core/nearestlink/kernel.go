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

// scanCounters accumulates per-worker pruning accounting, merged into Stats
// after parallel phases.
type scanCounters struct {
	evals       int64 // evaluations started (survived every cheap bound)
	normPruned  int64 // rejected by the norm window or segment-norm bound
	earlyExited int64 // rejected by the partial-distance screen
}

func (c *scanCounters) add(o scanCounters) {
	c.evals += o.evals
	c.normPruned += o.normPruned
	c.earlyExited += o.earlyExited
}

// screenPrefix is where screen stops adding the tail segment bound and
// collapses its accumulators for the first test: the first screenPrefix
// dimensions are the prefix the segPre segment norms cover, the rest the
// tail the segTail ones cover. Most candidates are rejected within the
// prefix, whose 128 bytes are the first two cache lines of a 60-dim row;
// only prefix survivors read the rest.
const screenPrefix = 16

// The segment-norm split: segPre even splits of the screen prefix and
// segTail of the tail, per row. For rows a, b with segment-norm vectors u,
// w the bound Σ_g(u_g−w_g)² = ‖u−w‖² satisfies ‖u−w‖² ≤ ‖a−b‖² (reverse
// triangle inequality per segment) and ‖u−w‖² ≥ (‖u‖−‖w‖)² = (‖a‖−‖b‖)²,
// so it is a valid O(1) filter that always dominates the plain norm gap and
// also rejects candidates whose mass sits in different feature regions even
// when their total norms match. Because the tail segments cover exactly the
// tail dimensions, their squared gaps alone lower-bound the tail's
// contribution — the bound screen adds over the prefix.
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
//     rows once a round has compacted the pool), in two stripes packed in
//     walk order: wldSegs (nseg segment norms, 128 B/candidate) and wldW
//     (a copy of each row). A scan walks each security row's norm
//     neighborhood outward from its binary-searched position, so every
//     column outside the current bound's norm window is skipped in bulk,
//     and the stripes are read sequentially: the segment norms for every
//     candidate in the window, the row only for the segment survivors.
//   - The security rows are scanned in (ascending norm, index) order t:
//     secN, secMid and secSegs are indexed by it, so the rows of one block
//     walk strongly overlapping norm windows. The rows themselves stay in
//     sec.
//
// Both keep the feature order; the screens' slack covers any reordering
// error, so no order is fitted to the pool.
type engine struct {
	sec, wld *matrix
	maxAbs   []float64 // raw max|a_j| over security ∪ wild
	maxTies  []int     // per dimension, the rows whose raw |a_j| equals maxAbs[j]
	secOrder []int     // scan order: security rows by (norm, index)
	rank     []int     // original security row -> scan-order position
	secN     []float64 // security row norms, scan order
	secMid   []int     // each scan-order row's norm position in wldNS
	secSegs  []float64 // m×nseg segment norms, scan order
	wldNS    []float64 // sorted wild row norms, ascending
	orig     []int     // sorted position -> wld matrix row
	cols     []int     // current pool column -> wld matrix row, ascending; nil: the identity
	wldSegs  []float64 // n×nseg packed segment norms, walk order
	wldW     []float64 // n×cols wild rows, walk order
	pw       int       // screen prefix width: min(screenPrefix, cols)
}

func newEngine(sec, wld *matrix, secN, wldN []float64, workers int, buf *buffers) *engine {
	e := &engine{sec: sec, wld: wld, pw: min(screenPrefix, wld.cols)}

	// Order the pool by (norm, original index) — deterministic, so every
	// Stats counter is a pure function of the input.
	e.orig = normOrder(wldN)

	n, d := wld.rows, wld.cols
	buf.stripes = take(buf.stripes, n*(1+nseg+d))
	st := buf.stripes
	e.wldNS, st = st[:n:n], st[n:]
	e.wldSegs, e.wldW = st[:n*nseg:n*nseg], st[n*nseg:]
	forChunks(workers, n, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			j := e.orig[k]
			row := e.wldW[k*d : (k+1)*d]
			copy(row, wld.row(j))
			fillSegNorms(e.wldSegs[k*nseg:(k+1)*nseg], row[:e.pw], row[e.pw:])
			e.wldNS[k] = wldN[j]
		}
	})
	e.orderSecurity(workers, secN)
	return e
}

// orderSecurity lays the security rows out for scanning, given their norms
// secN in row order: the scan order by (norm, index), each row's rank in
// it, and per scan-order row its norm, its position in the sorted pool
// norms and its segment norms.
func (e *engine) orderSecurity(workers int, secN []float64) {
	m := e.sec.rows
	e.secOrder = normOrder(secN)
	e.rank = make([]int, m)
	e.secN = make([]float64, m)
	e.secMid = make([]int, m)
	e.secSegs = make([]float64, m*nseg)
	forChunks(workers, m, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			i := e.secOrder[t]
			e.rank[i] = t
			e.secN[t] = secN[i]
			e.secMid[t] = sort.SearchFloat64s(e.wldNS, secN[i])
			row := e.sec.row(i)
			fillSegNorms(e.secSegs[t*nseg:(t+1)*nseg], row[:e.pw], row[e.pw:])
		}
	})
}

// normOrder returns the row indices sorted by (norm, index). Weighted norms
// are finite, never NaN, so this is a total order and any sort yields
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

// screen evaluates the partial distance of a candidate a against wild row
// b in dimension order, with a rejection checkpoint every 8 dimensions:
// the candidate is rejected as soon as partial + add exceeds limit, where
// add lower-bounds the squared gaps of the dimensions past pw (the tail
// segment bound) and drops to 0 once the screen reaches them. Dimension j
// goes to accumulator j mod 4, counted from 0 and again from pw, and a
// span's last len%4 dimensions to the first; at pw and at the end the four
// accumulators collapse to (s0+s1)+(s2+s3) and are tested, and the tail
// continues from that collapsed sum.
//
// A checkpoint applies exactly the final test to a partial sum, and the
// partial sum is monotone under the appended non-negative terms (adding
// t ≥ 0 to an accumulator never decreases its rounded value, and the
// collapse is monotone in each part), so a midway rejection coincides with
// the decision the sum at pw or at the end would give: only wasted
// arithmetic is skipped, and the rejected set, with it every Stats
// counter, is fixed by the accumulation order alone. The terms are the
// non-negative terms dist2 adds, so (up to the reordering error
// screenSlack covers) the sum lower-bounds the reference-order distance:
// a strict excess over limit = bound·screenSlack proves the candidate can
// neither beat nor tie bound. The comparisons are strictly-greater, so a
// bound of 0 cannot reject an exact duplicate whose smaller column index
// would win the reference tie-break. A survivor MAY beat or tie bound; the
// caller confirms it with the reference-order dist2.
func screen(a, b []float64, pw int, add, limit float64) bool {
	s, lo := 0.0, 0
	for _, hi := range [2]int{pw, len(a)} {
		x, y := a[lo:hi], b[lo:hi]
		s0 := s
		var s1, s2, s3 float64
		j := 0
		for ; j+8 <= len(x); j += 8 {
			xs := x[j : j+8 : j+8]
			ys := y[j : j+8 : j+8]
			d0 := xs[0] - ys[0]
			d1 := xs[1] - ys[1]
			d2 := xs[2] - ys[2]
			d3 := xs[3] - ys[3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
			d4 := xs[4] - ys[4]
			d5 := xs[5] - ys[5]
			d6 := xs[6] - ys[6]
			d7 := xs[7] - ys[7]
			s0 += d4 * d4
			s1 += d5 * d5
			s2 += d6 * d6
			s3 += d7 * d7
			if p := (s0 + s1) + (s2 + s3); p+add > limit {
				return false
			}
		}
		for ; j+4 <= len(x); j += 4 {
			xs := x[j : j+4 : j+4]
			ys := y[j : j+4 : j+4]
			d0 := xs[0] - ys[0]
			d1 := xs[1] - ys[1]
			d2 := xs[2] - ys[2]
			d3 := xs[3] - ys[3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; j < len(x); j++ {
			d := x[j] - y[j]
			s0 += d * d
		}
		s = (s0 + s1) + (s2 + s3)
		if s+add > limit {
			return false
		}
		lo, add = hi, 0
	}
	return true
}
