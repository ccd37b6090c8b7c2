package nearestlink

import (
	"fmt"
	"math"
	"math/rand"

	"patchdb/internal/par"
)

// VerifySampled spot-checks a Search (or ReferenceSearch) output against the
// reference semantics of Algorithm 1 without re-running the full O(M·N·d)
// reference search. It exploits an invariant of the greedy assignment: when
// link k is emitted, its wild column is the first-index argmin of the
// reference-order distance over every column not already taken by links
// 0..k-1, and its distance is exactly that minimum. (At assignment time the
// row's cached minimum is exact over the then-unused columns, and any
// earlier-index tie would have been returned by the row scan first.) So each
// sampled link can be verified independently with one brute-force row scan
// over the columns unused before it — the same dist2 accumulation order the
// reference uses, compared bit-for-bit.
//
// In addition to the sampled scans, the whole output is checked for the
// cheap global invariants: in-range indices, one-to-one rows and columns,
// and non-decreasing emission distances (the greedy always assigns the
// current global minimum, and cached minima only grow).
//
// sample bounds how many links get the brute-force scan (capped at
// len(links)); seed makes the sample deterministic. It returns the number of
// links scanned and the violation of the lowest-indexed failing link, if
// any, so the error is the same at any worker count.
func VerifySampled(security, wild [][]float64, links []Link, opts *Options, sample int, seed int64) (int, error) {
	if len(links) == 0 {
		return 0, nil
	}
	if len(security) == 0 {
		return 0, ErrNoSecurityPatches
	}
	if len(wild) == 0 {
		return 0, ErrNoWildPatches
	}
	if err := validateDims(security, wild); err != nil {
		return 0, err
	}
	o := opts.resolved()

	w, err := Weights(security, wild)
	if err != nil {
		return 0, err
	}
	sec, wld := weightedRows(security, w), weightedRows(wild, w)
	m, n := len(sec), len(wld)

	// Global invariants over the full output.
	rowTaken := make([]bool, m)
	colTaken := make([]bool, n)
	for k, l := range links {
		if l.Security < 0 || l.Security >= m {
			return 0, fmt.Errorf("link %d: security row %d out of range [0,%d)", k, l.Security, m)
		}
		if l.Wild < 0 || l.Wild >= n {
			return 0, fmt.Errorf("link %d: wild column %d out of range [0,%d)", k, l.Wild, n)
		}
		if rowTaken[l.Security] {
			return 0, fmt.Errorf("link %d: security row %d linked twice", k, l.Security)
		}
		if colTaken[l.Wild] {
			return 0, fmt.Errorf("link %d: wild column %d linked twice", k, l.Wild)
		}
		rowTaken[l.Security] = true
		colTaken[l.Wild] = true
		if k > 0 && l.Distance < links[k-1].Distance {
			return 0, fmt.Errorf("link %d: distance %g below predecessor %g (greedy emits non-decreasing distances)",
				k, l.Distance, links[k-1].Distance)
		}
	}

	if sample > len(links) {
		sample = len(links)
	}
	if sample <= 0 {
		return 0, nil
	}
	rng := rand.New(rand.NewSource(seed))
	sampled := make(map[int]bool, sample)
	for _, k := range rng.Perm(len(links))[:sample] {
		sampled[k] = true
	}

	// Snapshot the used-column set as it stood before each sampled link, in
	// one pass over the emission order, then run the brute-force scans in
	// parallel.
	type check struct {
		k    int
		link Link
		used []bool
	}
	checks := make([]check, 0, sample)
	used := make([]bool, n)
	for k, l := range links {
		if sampled[k] {
			checks = append(checks, check{k: k, link: l, used: append([]bool(nil), used...)})
		}
		used[l.Wild] = true
	}

	errs := make([]error, len(checks))
	_ = par.For(nil, len(checks), o.Workers, func(_, i int) {
		errs[i] = verifyOneLink(sec, wld, checks[i].link, checks[i].used)
	})
	for i, err := range errs {
		if err != nil {
			return len(checks), fmt.Errorf("link %d: %w", checks[i].k, err)
		}
	}
	return len(checks), nil
}

// verifyOneLink brute-force scans one security row over the columns unused
// at its assignment time and compares the first-index argmin (and its exact
// distance) with the link under test.
func verifyOneLink(sec, wld [][]float64, l Link, used []bool) error {
	row := sec[l.Security]
	best := math.Inf(1)
	bestJ := -1
	for j := range wld {
		if used[j] {
			continue
		}
		if d := dist2(row, wld[j]); d < best {
			best, bestJ = d, j
		}
	}
	if bestJ != l.Wild {
		return fmt.Errorf("security row %d linked to wild %d, reference scan selects %d (dist %g vs %g)",
			l.Security, l.Wild, bestJ, l.Distance, math.Sqrt(best))
	}
	if d := math.Sqrt(best); d != l.Distance {
		return fmt.Errorf("security row %d -> wild %d: distance %g, reference scan computes %g",
			l.Security, l.Wild, l.Distance, d)
	}
	return nil
}
