// Package par is the pipeline's one worker pool: a parallel loop over
// [0, n) whose output does not depend on the worker count, because every
// call writes only to its own index's slot or to its worker's slot and the
// caller merges those slots in a fixed order.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(worker, i) once for every i in [0, n) and returns when every
// started call has returned.
//
// workers is clamped to [1, n]; a value <= 0 means GOMAXPROCS. Items are
// claimed in increasing index order from one shared counter, and worker 0
// runs on the calling goroutine. fn writes its result to slot i of a
// caller-owned slice and per-worker state (scratch, counters) to slot
// worker, which is always below the clamped worker count. Adjacent slots
// share cache lines, so a counter bumped in a hot loop belongs in a local
// that is stored to its slot once per item.
//
// A nil ctx means context.Background(). Once ctx is done no new item
// starts; the started ones finish, and For returns ctx.Err() wrapped.
func For(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	run := func(w int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("par: %w", err)
	}
	return nil
}
