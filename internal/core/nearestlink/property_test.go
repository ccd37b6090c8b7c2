package nearestlink

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Instance generators for the differential property test. Each stresses a
// different regime of Algorithm 1:
//
//   - gaussian: generic continuous features, few exact ties.
//   - grid: coordinates from a small binary-exact set (multiples of 0.5),
//     so many pairs are exactly equidistant and the first-column tie-break
//     carries the assignment — the high-collision regime.
//   - duplicates: rows sampled from a handful of distinct points, so whole
//     rows collide on the same columns and zero distances abound.
func genGaussian(rng *rand.Rand, n, d int) [][]float64 {
	return randRows(rng, n, d)
}

func genGrid(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = 0.5 * float64(rng.Intn(4)) // {0, 0.5, 1, 1.5}: binary-exact
		}
	}
	return out
}

func genDuplicates(rng *rand.Rand, n, d int) [][]float64 {
	distinct := 3 + rng.Intn(3)
	points := randRows(rng, distinct, d)
	out := make([][]float64, n)
	for i := range out {
		out[i] = points[rng.Intn(distinct)]
	}
	return out
}

// TestSearchMatchesReference is the engine's central contract: on seeded
// random instances spanning the collision-heavy, duplicate-point, and N<M
// regimes, Search produces links bit-identical to ReferenceSearch — same
// pair sequence, same Float64 distance bits — at worker counts 1, 2, and 8.
func TestSearchMatchesReference(t *testing.T) {
	type gen struct {
		name string
		fn   func(*rand.Rand, int, int) [][]float64
	}
	gens := []gen{
		{"gaussian", genGaussian},
		{"grid", genGrid},
		{"duplicates", genDuplicates},
	}
	type shape struct{ m, n, d int }
	shapes := []shape{
		{1, 1, 1},
		{5, 3, 2},   // N < M: only N links possible
		{12, 40, 1}, // 1-D: maximal collision pressure
		{20, 60, 7},
		{40, 25, 5}, // N < M again, multi-dim
		{30, 300, 16},
	}
	// The comparison must reach the greedy phase's rescan path: at least one
	// tie-heavy instance has to resolve collisions both from the cached
	// candidate list and by rescanning.
	rescanned := false
	for _, g := range gens {
		for si, sh := range shapes {
			seed := int64(1000*si + len(g.name))
			rng := rand.New(rand.NewSource(seed))
			sec := g.fn(rng, sh.m, sh.d)
			wild := g.fn(rng, sh.n, sh.d)
			name := fmt.Sprintf("%s/%dx%dx%d", g.name, sh.m, sh.n, sh.d)

			want, err := ReferenceSearch(sec, wild, nil)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			for _, workers := range []int{1, 2, 8} {
				var st Stats
				got, err := Search(context.Background(), sec, wild, &Options{Workers: workers, Stats: &st})
				if err != nil {
					t.Fatalf("%s w=%d: engine: %v", name, workers, err)
				}
				assertLinksIdentical(t, name, workers, want, got)
				if g.name != "gaussian" && st.Rescans > 0 && st.SecondBestHits > 0 {
					rescanned = true
				}
			}
		}
	}
	if !rescanned {
		t.Error("no tie-heavy instance both rescanned and hit the candidate list; the rescan path went untested")
	}
}

func assertLinksIdentical(t *testing.T, name string, workers int, want, got []Link) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s w=%d: %d links, reference %d", name, workers, len(got), len(want))
	}
	for k := range want {
		w, g := want[k], got[k]
		if g.Security != w.Security || g.Wild != w.Wild {
			t.Fatalf("%s w=%d: link %d = (%d,%d), reference (%d,%d)",
				name, workers, k, g.Security, g.Wild, w.Security, w.Wild)
		}
		if math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("%s w=%d: link %d distance %x, reference %x",
				name, workers, k, math.Float64bits(g.Distance), math.Float64bits(w.Distance))
		}
	}
}
