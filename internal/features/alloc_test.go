package features_test

import (
	"testing"

	"patchdb/internal/corpus"
	"patchdb/internal/features"
)

// raceEnabled is set under the race detector, whose instrumentation
// changes allocation counts.
var raceEnabled bool

// TestExtractAllocs bounds what Extract allocates per generated patch once
// its scratch is warm: the feature vector, and at most the function-name
// set. Lexing each line into a fresh token slice, or building per-line text
// and abstraction lists, costs several allocations per changed line.
func TestExtractAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	gen := corpus.NewGenerator(corpus.Config{Seed: 4})
	for _, lc := range append(gen.GenerateNVD(10), gen.GenerateWild(10)...) {
		p := lc.Commit.Patch()
		allocs := testing.AllocsPerRun(20, func() { features.Extract(p, 0) })
		if allocs > 2 {
			t.Errorf("%s: Extract allocated %v times per call, want <= 2", lc.Commit.Hash, allocs)
		}
	}
}
