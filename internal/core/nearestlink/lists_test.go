package nearestlink

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"patchdb/internal/telemetry"
)

// deepenedRows runs the engine up to phase 1 and returns how many rows the
// deepening pass would scan.
func deepenedRows(t *testing.T, sec, wild [][]float64, opts Options) int {
	t.Helper()
	o := opts.resolved()
	e, err := prepare(sec, wild, o, new(buffers))
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	cands, _, err := e.scan(bg, o, &st)
	if err != nil {
		t.Fatal(err)
	}
	return len(deepRows(e, cands))
}

// bruteKNN is KNNSelect by brute force: every row's first-index argmin of
// the reference-order distance, deduplicated in row order. Rows without a
// finite distance pick nothing.
func bruteKNN(t *testing.T, sec, wild [][]float64, normalize bool) []int {
	t.Helper()
	if normalize {
		w, err := Weights(sec, wild)
		if err != nil {
			t.Fatal(err)
		}
		sec, wild = weightedRows(sec, w), weightedRows(wild, w)
	}
	var out []int
	seen := map[int]bool{}
	for _, row := range sec {
		best, bestJ := inf, -1
		for j, col := range wild {
			if d := dist2(row, col); d < best {
				best, bestJ = d, j
			}
		}
		if bestJ >= 0 && !seen[bestJ] {
			seen[bestJ] = true
			out = append(out, bestJ)
		}
	}
	return out
}

func repeatRows(row []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// TestCandidateLists pins the greedy phase's candidate lists on instances
// built to reach each of their paths: a full list used up (which must
// rescan), a short list used up (no free column left: no link, and no
// rescan), rows whose distances overflow, and many rows deepened at once.
// Every case must give links bit-identical to ReferenceSearch and
// KNNSelect's brute-force picks, pop the heap once per iteration of the
// reference's loop, and keep Stats identical at workers 1, 2 and 8, on the
// default task grid and on a multi-cell one.
func TestCandidateLists(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type tcase struct {
		name      string
		sec, wild [][]float64
		noNorm    bool
		check     func(t *testing.T, name string, st Stats, deepened int)
	}
	// Twelve identical rows against thirty identical columns: rows 1-11
	// lose their best column to row 0 and rows 2-11 their runner-up to
	// row 1, so rows 2-11 are deepened to the same listDepth columns. Rows
	// 0-7 take those, and row 8 uses its list up and rescans.
	dup := randRows(rng, 1, 6)[0]
	fullSec := append(repeatRows(dup, 12), randRows(rng, 5, 6)...)
	fullWild := append(repeatRows(dup, 30), randRows(rng, 100, 6)...)
	// A pool of five, smaller than listDepth, searched without
	// normalization. Rows 0-2 reach only columns 0 and 1: every other
	// distance overflows. Row 2 loses both to rows 0 and 1, so it is
	// deepened to a short list, uses it up, and gets no link.
	shortSec := [][]float64{{2e154}, {2e154}, {2e154}, {0}, {1}}
	shortWild := [][]float64{{2e154}, {2.5e154}, {0}, {1}, {100}}
	cases := []tcase{
		{name: "full-list-used-up", sec: fullSec, wild: fullWild,
			check: func(t *testing.T, name string, st Stats, deepened int) {
				if st.Rescans == 0 || st.SecondBestHits == 0 {
					t.Errorf("%s: rescans %d, list hits %d; want both", name, st.Rescans, st.SecondBestHits)
				}
				if deepened < 10 {
					t.Errorf("%s: %d rows deepened, want >= 10", name, deepened)
				}
			}},
		{name: "short-list", sec: shortSec, wild: shortWild, noNorm: true,
			check: func(t *testing.T, name string, st Stats, deepened int) {
				if st.Rescans != 0 || st.SecondBestHits < 2 {
					t.Errorf("%s: rescans %d, list hits %d; want 0 and >= 2", name, st.Rescans, st.SecondBestHits)
				}
				if deepened != 1 {
					t.Errorf("%s: %d rows deepened, want 1", name, deepened)
				}
			}},
		{name: "grid", sec: genGrid(rng, 200, 2), wild: genGrid(rng, 300, 2),
			check: func(t *testing.T, name string, st Stats, deepened int) {
				if st.Rescans == 0 || deepened == 0 {
					t.Errorf("%s: rescans %d, %d rows deepened; want both", name, st.Rescans, deepened)
				}
			}},
	}
	for _, c := range overflowCases() {
		cases = append(cases, tcase{name: "overflow-" + c.name, sec: c.sec, wild: c.wild, noNorm: true})
	}
	for _, c := range cases {
		var ref Stats
		want, err := ReferenceSearch(c.sec, c.wild, &Options{DisableNormalization: c.noNorm, Stats: &ref})
		if err != nil {
			t.Fatal(err)
		}
		wantKNN := bruteKNN(t, c.sec, c.wild, !c.noNorm)
		for _, grid := range [][2]int{{0, 0}, {8, 128}} {
			var first Stats
			for wi, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/grid=%v/w=%d", c.name, grid, workers)
				var st Stats
				o := Options{Workers: workers, DisableNormalization: c.noNorm, Stats: &st,
					blockRows: grid[0], shardCols: grid[1]}
				got, err := Search(bg, c.sec, c.wild, &o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertLinksIdentical(t, name, workers, want, got)
				// Each pop is one iteration of the reference's loop: a link
				// or a collision, which the reference resolves by a rescan.
				if st.HeapPops != len(want)+ref.Rescans {
					t.Errorf("%s: %d heap pops, reference %d links + %d collisions", name, st.HeapPops, len(want), ref.Rescans)
				}
				st.Duration = 0
				if wi == 0 {
					first = st
					if c.check != nil {
						o.Stats = nil
						c.check(t, name, st, deepenedRows(t, c.sec, c.wild, o))
					}
				} else if st != first {
					t.Errorf("%s: stats diverge:\n got %+v\nwant %+v", name, st, first)
				}
				o.Stats = nil
				knn, err := KNNSelect(bg, c.sec, c.wild, &o)
				if err != nil {
					t.Fatalf("%s: KNNSelect: %v", name, err)
				}
				if fmt.Sprint(knn) != fmt.Sprint(wantKNN) {
					t.Errorf("%s: KNNSelect = %v, brute force %v", name, knn, wantKNN)
				}
			}
		}
	}
}

// spanTree renders the spans under the first root named root as
// "parent>child" pairs in start order, and returns the root's duration and
// the summed durations of its direct children.
func spanTree(t *testing.T, spans []telemetry.SpanRecord, root string) (tree []string, rootNS, childNS int64) {
	t.Helper()
	names := map[uint64]string{}
	var rootID uint64
	for _, s := range spans {
		names[s.ID] = s.Name
		if s.Name == root && rootID == 0 {
			rootID, rootNS = s.ID, s.DurationNS
		}
	}
	if rootID == 0 {
		t.Fatalf("no %s span in %d spans", root, len(spans))
	}
	for _, s := range spans {
		if s.Parent == rootID {
			tree = append(tree, names[s.Parent]+">"+s.Name)
			childNS += s.DurationNS
		}
	}
	return tree, rootNS, childNS
}

// TestSearchPhaseSpans pins the phase spans of a search: nearestlink.search
// has the children prepare, scan, deepen and greedy, nearestlink.knn has
// prepare and scan, the children cover at least 95% of their parent, and
// the tree is the same at workers 1 and 8.
func TestSearchPhaseSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sec := genGrid(rng, 300, 12)
	wild := genGrid(rng, 20000, 12)
	type run struct {
		root string
		call func(ctx context.Context, o *Options) error
		want []string
	}
	runs := []run{
		{"nearestlink.search", func(ctx context.Context, o *Options) error {
			_, err := Search(ctx, sec, wild, o)
			return err
		}, []string{"prepare", "scan", "deepen", "greedy"}},
		{"nearestlink.knn", func(ctx context.Context, o *Options) error {
			_, err := KNNSelect(ctx, sec, wild, o)
			return err
		}, []string{"prepare", "scan"}},
	}
	for _, r := range runs {
		var want []string
		for _, c := range r.want {
			want = append(want, r.root+">nearestlink."+c)
		}
		for _, workers := range []int{1, 8} {
			hub := telemetry.NewHub()
			if err := r.call(telemetry.WithHub(bg, hub), &Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			tree, rootNS, childNS := spanTree(t, hub.Tracer.Snapshot(), r.root)
			if fmt.Sprint(tree) != fmt.Sprint(want) {
				t.Errorf("%s w=%d: span tree %v, want %v", r.root, workers, tree, want)
			}
			if float64(childNS) < 0.95*float64(rootNS) {
				t.Errorf("%s w=%d: children cover %d of %d ns (< 95%%)", r.root, workers, childNS, rootNS)
			}
		}
	}
}
