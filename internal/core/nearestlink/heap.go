package nearestlink

// rowHeap is a binary min-heap of (distance, row) pairs ordered by distance
// and, on ties, by row index. The tie-break is load-bearing: the reference
// greedy loop scans rows in ascending index with a strict <, so the lowest
// index among minimal rows must win for the heap-driven assignment to
// reproduce Algorithm 1's output exactly.
//
// Invariant maintained by the greedy phase: every unassigned, unexhausted
// row has exactly one live entry whose key equals the row's current u value
// (a row's key changes only while it is popped, and it is re-pushed with
// the new key), so a pop is always the true argmin over pending rows.
type rowHeap struct {
	d []float64
	r []int
}

func (h *rowHeap) len() int { return len(h.d) }

func (h *rowHeap) less(a, b int) bool {
	if h.d[a] != h.d[b] {
		return h.d[a] < h.d[b]
	}
	return h.r[a] < h.r[b]
}

func (h *rowHeap) swap(a, b int) {
	h.d[a], h.d[b] = h.d[b], h.d[a]
	h.r[a], h.r[b] = h.r[b], h.r[a]
}

func (h *rowHeap) push(d float64, row int) {
	h.d = append(h.d, d)
	h.r = append(h.r, row)
	i := len(h.d) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *rowHeap) pop() (float64, int) {
	d, row := h.d[0], h.r[0]
	last := len(h.d) - 1
	h.swap(0, last)
	h.d = h.d[:last]
	h.r = h.r[:last]
	h.siftDown(0)
	return d, row
}

// heapifyRowHeap builds a heap over all rows at once — entry i keyed by
// u[i] — with Floyd's bottom-up sift-down: O(m) instead of the O(m log m)
// of m pushes. The heap's internal layout differs from push-built, but pop
// order is a pure function of the (distance, row) total order, so the
// greedy phase's output and accounting are unchanged.
func heapifyRowHeap(u []float64) *rowHeap {
	m := len(u)
	h := &rowHeap{d: append(make([]float64, 0, m), u...), r: make([]int, m)}
	for i := range h.r {
		h.r[i] = i
	}
	for i := m/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

// siftDown restores the heap property below index i.
func (h *rowHeap) siftDown(i int) {
	n := len(h.d)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
