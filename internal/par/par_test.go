package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryIndexOnce checks that each index runs exactly once and
// that worker ids stay below the clamped worker count, including when more
// workers than items are asked for.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers, clamped int }{
		{100, 1, 1}, {100, 2, 2}, {100, 8, 8}, {5, 8, 5}, {1, 8, 1},
		{100, 0, min(runtime.GOMAXPROCS(0), 100)},
		{100, -3, min(runtime.GOMAXPROCS(0), 100)},
	} {
		calls := make([]atomic.Int32, c.n)
		var badWorker atomic.Int32
		if err := For(context.Background(), c.n, c.workers, func(w, i int) {
			if w < 0 || w >= c.clamped {
				badWorker.Store(int32(w) + 1)
			}
			calls[i].Add(1)
		}); err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", c.n, c.workers, i, got)
			}
		}
		if w := badWorker.Load(); w != 0 {
			t.Errorf("n=%d workers=%d: worker id %d outside [0, %d)", c.n, c.workers, w-1, c.clamped)
		}
	}
}

// TestForSerialOrder pins the claim order: one worker runs the indices in
// increasing order on the calling goroutine.
func TestForSerialOrder(t *testing.T) {
	var got []int
	if err := For(nil, 6, 1, func(w, i int) { got = append(got, i) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v, want 0..5", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("ran %d items, want 6", len(got))
	}
}

func TestForEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		if err := For(context.Background(), 0, workers, func(w, i int) {
			t.Errorf("fn(%d, %d) called for n = 0", w, i)
		}); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestForCancel cancels from inside an item: every started item finishes
// and For reports context.Canceled. No worker starts an item after it has
// seen the cancellation: a lone worker stops right after the canceling
// item, and each other worker can start at most one item whose claim raced
// the cancel.
func TestForCancel(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var canceled, lateStarts, started, finished atomic.Int32
		err := For(ctx, 1000, workers, func(w, i int) {
			if canceled.Load() != 0 {
				lateStarts.Add(1)
			}
			started.Add(1)
			if i == 10 {
				canceled.Store(1)
				cancel()
			}
			finished.Add(1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := lateStarts.Load(); n > int32(workers-1) {
			t.Errorf("workers=%d: %d items started after cancellation, want <= %d", workers, n, workers-1)
		}
		if s, f := started.Load(), finished.Load(); s != f || s < 11 {
			t.Errorf("workers=%d: started %d, finished %d; want equal and >= 11", workers, s, f)
		}
		if s := started.Load(); workers == 1 && s != 11 {
			t.Errorf("workers=1: started %d items, want 11", s)
		}
	}
}

func TestForCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := For(ctx, 10, 4, func(w, i int) { t.Errorf("fn(%d, %d) ran on a canceled context", w, i) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
