package diff_test

import (
	"testing"

	"patchdb/internal/corpus"
	"patchdb/internal/diff"
)

// raceEnabled is set under the race detector, whose instrumentation
// changes allocation counts.
var raceEnabled bool

// TestComputeAllocs bounds what Compute allocates for one generated commit
// pair, a one-hunk change, once its scratch is warm: the FileDiff, its hunk
// list, the hunk and its lines. A per-step copy of the Myers V array or a
// per-call edit script shows up as dozens more.
func TestComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	lc := corpus.NewGenerator(corpus.Config{Seed: 6}).GenerateNVD(1)[0]
	for path, before := range lc.Commit.Before {
		after := lc.Commit.After[path]
		if diff.Compute(path, before, after, 3) == nil {
			t.Fatal("generated commit changes nothing")
		}
		allocs := testing.AllocsPerRun(50, func() { diff.Compute(path, before, after, 3) })
		if allocs > 4 {
			t.Errorf("Compute allocated %v times per call, want <= 4", allocs)
		}
	}
}
