package nearestlink

import (
	"math"
	"math/rand"
	"testing"
)

// countRows generates feature-like rows in the manner of the patchdb-bench
// NEARESTLINK sweep: sparse non-negative counts with a per-dimension scale
// and a long-tailed per-row size factor.
func countRows(rng *rand.Rand, n, d int) [][]float64 {
	scale := make([]float64, d)
	for j := range scale {
		scale[j] = 1 + 9*rng.Float64()
	}
	out := make([][]float64, n)
	for i := range out {
		size := math.Exp(1.2 * rng.NormFloat64())
		row := make([]float64, d)
		for j := range row {
			if rng.Float64() < 0.5 {
				continue
			}
			row[j] = math.Floor(rng.ExpFloat64() * scale[j] * size)
		}
		out[i] = row
	}
	return out
}

// TestStatsPinned pins the engine's accounting on two fixed instances: a
// sweep-shaped 50×2000 instance of 60 count features, and a tie-heavy grid
// whose greedy phase deepens, resolves collisions from the lists and
// rescans. The links alone cannot show a change to the pruning ladder — a
// bound that rejects less only costs evaluations — so every counter is
// compared with the value recorded when the ladder last changed, at
// workers 1 and 2. A change that moves a counter on purpose records the
// new values here and says why.
func TestStatsPinned(t *testing.T) {
	type counters struct {
		evals, normPruned, earlyExited int64
		heapPops, listHits, rescans    int
	}
	rng := rand.New(rand.NewSource(1))
	countSec, countWild := countRows(rng, 50, 60), countRows(rng, 2000, 60)
	rng = rand.New(rand.NewSource(2))
	gridSec, gridWild := genGrid(rng, 200, 18), genGrid(rng, 250, 18)
	cases := []struct {
		name      string
		sec, wild [][]float64
		want      counters
	}{
		{"counts", countSec, countWild, counters{15835, 84165, 14653, 57, 7, 0}},
		{"grid", gridSec, gridWild, counters{54638, 7375, 50583, 317, 100, 17}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			var st Stats
			links, err := Search(bg, c.sec, c.wild, &Options{Workers: workers, Stats: &st})
			if err != nil {
				t.Fatalf("%s w=%d: %v", c.name, workers, err)
			}
			want, err := ReferenceSearch(c.sec, c.wild, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertLinksIdentical(t, c.name, workers, want, links)
			got := counters{st.DistanceEvals, st.NormPruned, st.EarlyExited, st.HeapPops, st.SecondBestHits, st.Rescans}
			if got != c.want {
				t.Errorf("%s w=%d: counters %+v, want %+v", c.name, workers, got, c.want)
			}
		}
	}
}
