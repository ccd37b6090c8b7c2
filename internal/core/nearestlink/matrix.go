package nearestlink

import (
	"math"
	"sync"
)

// matrix is a flat, row-major feature matrix: rows*cols float64 values in
// one contiguous allocation. The engine operates exclusively on this layout
// — scanning a wild pool walks memory sequentially instead of chasing
// per-row pointers, which is what lets the distance kernel run at cache
// speed on realistic (thousands × millions) problem sizes.
type matrix struct {
	rows, cols int
	data       []float64
}

// buffers holds a search's largest arrays, the flattened inputs and the
// wild stripes, for the next search to reuse. An augmentation run keeps one
// for all rounds over its pool (Rounds); fresh multi-megabyte arrays would be
// zeroed and page-faulted in every time, and set-up's row chunks would
// serialize on those faults. Every element handed out is written before it
// is read.
type buffers struct {
	sec     []float64 // flattened security rows
	wld     []float64 // flattened wild rows
	stripes []float64 // the engine's wild stripes, end to end
}

var searchBuffers = sync.Pool{New: func() any { return new(buffers) }}

// take returns s resized to n, reallocating only when it is too short.
func take(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// flatten copies the pre-validated (callers must have run validateDims)
// security and wild rows into flat storage in b on fixed row chunks over
// workers. The copy is the pass that rejects non-finite values.
func (b *buffers) flatten(workers int, security, wild [][]float64) (sec, wld *matrix, err error) {
	d := len(security[0])
	b.sec = take(b.sec, len(security)*d)
	b.wld = take(b.wld, len(wild)*d)
	sec = &matrix{rows: len(security), cols: d, data: b.sec}
	wld = &matrix{rows: len(wild), cols: d, data: b.wld}
	if err := copyFinite(workers, 0, security, sec); err != nil {
		return nil, nil, err
	}
	if err := copyFinite(workers, 1, wild, wld); err != nil {
		return nil, nil, err
	}
	return sec, wld, nil
}

// copyFinite copies rows of set s into dst on fixed row chunks over
// workers, and returns a wrapped ErrNonFinite naming the first NaN or ±Inf:
// each chunk stops at its own first one, and the lowest chunk with one
// reports, so the error names the lowest (row, column) at any worker count.
func copyFinite(workers, s int, rows [][]float64, dst *matrix) error {
	errs := make([]error, chunkCount(workers, len(rows)))
	forChunks(workers, len(rows), func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := checkFinite(s, i, rows[i]); err != nil {
				errs[c] = err
				return
			}
			copy(dst.row(i), rows[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// row returns the i-th row as a view into the backing array (no copy).
func (m *matrix) row(i int) []float64 {
	off := i * m.cols
	return m.data[off : off+m.cols : off+m.cols]
}

// maxAbsFlat returns the per-dimension maxima max|a_j| over the rows of
// all provided matrices (they must share a column count, and their values
// must be finite), and per dimension the number of rows whose |a_j| equals
// the maximum. Each fixed row chunk over workers takes its own maxima and
// counts, and the chunks merge by max, adding the counts of equal maxima,
// which is exact in any order.
func maxAbsFlat(workers int, sets ...*matrix) (maxAbs []float64, ties []int) {
	dim := sets[0].cols
	maxAbs, ties = make([]float64, dim), make([]int, dim)
	type part struct {
		max  []float64
		ties []int
	}
	for _, set := range sets {
		parts := make([]part, chunkCount(workers, set.rows))
		forChunks(workers, set.rows, func(c, lo, hi int) {
			p := part{make([]float64, dim), make([]int, dim)}
			for i := lo; i < hi; i++ {
				for j, v := range set.row(i) {
					if v < 0 {
						v = -v
					}
					if v > p.max[j] {
						p.max[j], p.ties[j] = v, 1
					} else if v == p.max[j] {
						p.ties[j]++
					}
				}
			}
			parts[c] = p
		})
		for _, p := range parts {
			for j, v := range p.max {
				if v > maxAbs[j] {
					maxAbs[j], ties[j] = v, p.ties[j]
				} else if v == maxAbs[j] {
					ties[j] += p.ties[j]
				}
			}
		}
	}
	return maxAbs, ties
}

// weighNorms scales every row of m by w in place (w nil leaves m as it
// is) and returns the Euclidean norm ‖x‖ of every resulting row, computed
// with the blocked dot kernel, on fixed row chunks over workers. The norms
// feed the engine's O(1) candidate rejection bound (‖a‖−‖b‖)² ≤ ‖a−b‖².
func weighNorms(workers int, m *matrix, w []float64) []float64 {
	out := make([]float64, m.rows)
	forChunks(workers, m.rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.row(i)
			if w != nil {
				for j := range row {
					row[j] *= w[j]
				}
			}
			out[i] = math.Sqrt(dot(row, row))
		}
	})
	return out
}
