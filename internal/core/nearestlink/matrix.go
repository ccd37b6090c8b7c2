package nearestlink

import (
	"fmt"
	"math"
	"sync"
)

// Matrix is a flat, row-major feature matrix: rows*cols float64 values in
// one contiguous allocation with a fixed stride between rows. The engine
// operates exclusively on this layout — scanning a wild pool walks memory
// sequentially instead of chasing per-row pointers, which is what lets the
// distance kernel run at cache speed on realistic (thousands × millions)
// problem sizes.
type Matrix struct {
	rows, cols int
	// stride is the element distance between consecutive rows; always
	// >= cols (== cols for matrices built here, kept separate so future
	// sub-views can share one backing array).
	stride int
	data   []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nearestlink: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, stride: cols, data: make([]float64, rows*cols)}
}

// MatrixFromRows copies a [][]float64 into flat storage, validating that
// every row shares the first row's dimensionality. A ragged input returns a
// wrapped ErrDimensionMismatch instead of the out-of-range panic the old
// pointer-per-row code paths risked.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d",
				ErrDimensionMismatch, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// buffers holds a search's largest arrays, the flattened inputs and the
// wild stripes, for the next search to reuse. An augmentation run searches
// a nearly unchanged pool once per round; fresh multi-megabyte arrays would
// be zeroed and page-faulted in every time, and set-up's row chunks would
// serialize on those faults. Every element handed out is written before it
// is read.
type buffers struct {
	flat    []float64 // flattened security rows, then wild rows
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
func (b *buffers) flatten(workers int, security, wild [][]float64) (sec, wld *Matrix, err error) {
	d := len(security[0])
	m := len(security) * d
	b.flat = take(b.flat, m+len(wild)*d)
	sec = &Matrix{rows: len(security), cols: d, stride: d, data: b.flat[:m:m]}
	wld = &Matrix{rows: len(wild), cols: d, stride: d, data: b.flat[m:]}
	if err := copyFinite(workers, 0, security, sec); err != nil {
		return nil, nil, err
	}
	if err := copyFinite(workers, 1, wild, wld); err != nil {
		return nil, nil, err
	}
	return sec, wld, nil
}

// copyFinite copies rows of set s into dst (when non-nil) on fixed row
// chunks over workers, and returns a wrapped ErrNonFinite naming the first
// NaN or ±Inf: each chunk stops at its own first one, and the lowest chunk
// with one reports, so the error names the lowest (row, column) at any
// worker count.
func copyFinite(workers, s int, rows [][]float64, dst *Matrix) error {
	errs := make([]error, chunkCount(workers, len(rows)))
	forChunks(workers, len(rows), func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := checkFinite(s, i, rows[i]); err != nil {
				errs[c] = err
				return
			}
			if dst != nil {
				copy(dst.Row(i), rows[i])
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the per-row feature dimensionality.
func (m *Matrix) Cols() int { return m.cols }

// Stride returns the element distance between consecutive rows.
func (m *Matrix) Stride() int { return m.stride }

// Data exposes the backing array (row-major, stride-spaced).
func (m *Matrix) Data() []float64 { return m.data }

// Row returns the i-th row as a view into the backing array (no copy).
func (m *Matrix) Row(i int) []float64 {
	off := i * m.stride
	return m.data[off : off+m.cols : off+m.cols]
}

// RowSlices returns the rows as a [][]float64 of views into the flat
// backing array — one header allocation, zero data copies. It lets flat
// matrices feed APIs that still speak [][]float64 (the ml classifiers).
func (m *Matrix) RowSlices() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// weightsFlat computes the max-abs weights w_j = 1/max|a_j| over the rows
// of all provided matrices (they must share a column count, and their
// values must be finite). Each fixed row chunk over workers takes its own
// maxima, and the chunk maxima merge by max, which is exact in any order.
func weightsFlat(workers int, sets ...*Matrix) []float64 {
	dim := sets[0].cols
	w := make([]float64, dim)
	for _, set := range sets {
		part := make([][]float64, chunkCount(workers, set.rows))
		forChunks(workers, set.rows, func(c, lo, hi int) {
			pw := make([]float64, dim)
			for i := lo; i < hi; i++ {
				for j, v := range set.Row(i) {
					if v < 0 {
						v = -v
					}
					if v > pw[j] {
						pw[j] = v
					}
				}
			}
			part[c] = pw
		})
		for _, pw := range part {
			for j, v := range pw {
				w[j] = max(w[j], v)
			}
		}
	}
	for j := range w {
		if w[j] == 0 {
			w[j] = 1
		} else {
			w[j] = 1 / w[j]
		}
	}
	return w
}

// weighNorms scales every row of m by w in place (w nil leaves m as it
// is) and returns the Euclidean norm ‖x‖ of every resulting row, computed
// with the blocked dot kernel, on fixed row chunks over workers. The norms
// feed the engine's O(1) candidate rejection bound (‖a‖−‖b‖)² ≤ ‖a−b‖².
func weighNorms(workers int, m *Matrix, w []float64) []float64 {
	out := make([]float64, m.rows)
	forChunks(workers, m.rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
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
