package oversample

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"patchdb/internal/corpus"
	"patchdb/internal/diff"
)

// batchJobs is a corpus of natural patches large enough for several
// batch windows, most of which touch an if statement.
func batchJobs(t *testing.T) []Job {
	t.Helper()
	g := corpus.NewGenerator(corpus.Config{Seed: 4})
	var jobs []Job
	for _, set := range [][]*corpus.LabeledCommit{g.GenerateNVD(150), g.GenerateNonSecurity(150), g.GenerateWild(300)} {
		for _, lc := range set {
			c := lc.Commit
			jobs = append(jobs, Job{Hash: c.Hash, Before: c.Before, After: c.After})
		}
	}
	// A patch without files, as Build passes for a record it cannot find.
	jobs = slices.Insert(jobs, 10, Job{})
	if len(jobs) <= 2*batchWindow {
		t.Fatalf("%d jobs fill fewer than three windows of %d", len(jobs), batchWindow)
	}
	return jobs
}

// renderSyns flattens one patch's variants into comparable strings.
func renderSyns(syns []*Synthetic) []string {
	var out []string
	for _, s := range syns {
		out = append(out, fmt.Sprintf("%s %v %v %s:%d\n%s", s.Patch.Commit, s.Variant, s.Side, s.File, s.Line, diff.Format(s.Patch)))
	}
	return out
}

// TestSynthesizeBatchMatchesSerial pins the batch contract: at workers 1, 2
// and 8, SynthesizeBatch gives every patch the variants a Synthesize loop in
// index order over an equally seeded Rand gives it, and leaves the Rand in
// the same state.
func TestSynthesizeBatchMatchesSerial(t *testing.T) {
	jobs := batchJobs(t)
	const seed = 21
	serial := &Oversampler{MaxPerPatch: 2, Rand: rand.New(rand.NewSource(seed))}
	want := make([][]string, len(jobs))
	total := 0
	for i, j := range jobs {
		syns, err := serial.Synthesize(j.Hash, j.Before, j.After)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderSyns(syns)
		total += len(syns)
	}
	if total < len(jobs)/2 {
		t.Fatalf("only %d variants from %d patches", total, len(jobs))
	}
	wantNext := serial.Rand.Int63()
	for _, workers := range []int{1, 2, 8} {
		ov := &Oversampler{MaxPerPatch: 2, Rand: rand.New(rand.NewSource(seed))}
		got := make([][]string, len(jobs))
		calls := make([]int, len(jobs))
		err := ov.SynthesizeBatch(context.Background(), len(jobs), workers,
			func(i int) Job { return jobs[i] },
			func(i int, syns []*Synthetic) {
				got[i] = renderSyns(syns)
				calls[i]++
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range jobs {
			if calls[i] != 1 {
				t.Fatalf("workers=%d: done called %d times for patch %d", workers, calls[i], i)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: patch %d variants\n%q\nwant\n%q", workers, i, got[i], want[i])
			}
		}
		if next := ov.Rand.Int63(); next != wantNext {
			t.Errorf("workers=%d: Rand drew a different number of values than the serial loop", workers)
		}
	}
}

// TestSynthesizeBatchCanceled checks that a canceled context stops the
// batch with a wrapped context.Canceled, both before it starts and once a
// window is under way.
func TestSynthesizeBatchCanceled(t *testing.T) {
	jobs := batchJobs(t)
	ov := &Oversampler{MaxPerPatch: 2, Rand: rand.New(rand.NewSource(1))}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := ov.SynthesizeBatch(ctx, len(jobs), 2, func(i int) Job { return jobs[i] },
		func(int, []*Synthetic) { calls++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled before the start: err = %v, want wrapped context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("canceled before the start: done called %d times", calls)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	rendered := make([]bool, len(jobs))
	err = ov.SynthesizeBatch(ctx, len(jobs), 1, func(i int) Job { return jobs[i] },
		func(i int, _ []*Synthetic) {
			rendered[i] = true
			cancel()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-batch: err = %v, want wrapped context.Canceled", err)
	}
	if rendered[len(jobs)-1] {
		t.Error("canceled mid-batch: the last patch was still rendered")
	}
}
