package nearestlink

import (
	"math"
	"sync"
)

// ReferenceSearch is the straightforward transcription of Algorithm 1 that
// the optimized engine is differentially tested against: O(M·N·d) full
// distance scans over [][]float64 rows and an O(M²) argmin rescan in the
// greedy loop, with no pruning, no flat layout, and no heap. It is retained
// verbatim from the pre-engine implementation (minus timing) so property
// tests and the NEARESTLINK bench experiment can assert that Search produces
// bit-identical links, and so benchmarks can quantify the engine's speedup
// at an equal worker count. Options.Stats is ignored beyond the problem
// dimensions and rescan count.
func ReferenceSearch(security, wild [][]float64, opts *Options) ([]Link, error) {
	if len(security) == 0 {
		return nil, ErrNoSecurityPatches
	}
	if len(wild) == 0 {
		return nil, ErrNoWildPatches
	}
	if err := validateDims(security, wild); err != nil {
		return nil, err
	}
	o := opts.resolved()
	rescans := 0

	w, err := Weights(security, wild)
	if err != nil {
		return nil, err
	}
	sec, wld := weightedRows(security, w), weightedRows(wild, w)

	m := len(sec)
	n := len(wld)

	// rowMin scans row i over columns not in `used`, returning the best
	// (distance^2, column).
	rowMin := func(i int, used []bool) (float64, int) {
		best := math.Inf(1)
		bestJ := -1
		row := sec[i]
		for j := 0; j < n; j++ {
			if used != nil && used[j] {
				continue
			}
			if d := dist2(row, wld[j]); d < best {
				best = d
				bestJ = j
			}
		}
		return best, bestJ
	}

	// Initial per-row minima (Algorithm 1 lines 2-3), in parallel.
	u := make([]float64, m)
	v := make([]int, m)
	var wg sync.WaitGroup
	chunk := (m + o.Workers - 1) / o.Workers
	for w0 := 0; w0 < m; w0 += chunk {
		hi := w0 + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				u[i], v[i] = rowMin(i, nil)
			}
		}(w0, hi)
	}
	wg.Wait()

	// Greedy assignment (Algorithm 1 lines 5-17).
	used := make([]bool, n)
	links := make([]Link, 0, m)
	assigned := 0
	total := m
	if n < m {
		total = n
	}
	done := make([]bool, m)
	for assigned < total {
		// m0 <- argmin U over unassigned rows.
		m0 := -1
		for i := 0; i < m; i++ {
			if !done[i] && (m0 == -1 || u[i] < u[m0]) {
				m0 = i
			}
		}
		if m0 == -1 {
			break
		}
		n0 := v[m0]
		if n0 < 0 || used[n0] {
			// Column collision: rescan this row over unused columns
			// (Algorithm 1 lines 10-15).
			rescans++
			d, j := rowMin(m0, used)
			if j < 0 {
				done[m0] = true
				continue
			}
			u[m0], v[m0] = d, j
			// Re-enter the loop: another row may now have the global min.
			continue
		}
		used[n0] = true
		done[m0] = true
		links = append(links, Link{Security: m0, Wild: n0, Distance: math.Sqrt(u[m0])})
		assigned++
	}
	if o.Stats != nil {
		*o.Stats = Stats{SecurityRows: m, WildCols: n, Rescans: rescans}
	}
	return links, nil
}
