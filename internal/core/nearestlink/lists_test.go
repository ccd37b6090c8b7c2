package nearestlink

import (
	"fmt"
	"math/rand"
	"strings"
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
	cands, err := e.scan(bg, o, &st)
	if err != nil {
		t.Fatal(err)
	}
	return len(deepRows(e, cands))
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
// rescan), a short list that holds the whole pool (collisions resolve from
// it, and nothing rescans), and many rows deepened at once. Every case must
// give links bit-identical to ReferenceSearch, pop the heap once per
// iteration of the reference's loop, and keep Stats identical at workers 1,
// 2 and 8.
func TestCandidateLists(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type tcase struct {
		name      string
		sec, wild [][]float64
		check     func(t *testing.T, name string, st Stats, deepened int)
	}
	// Twelve identical rows against thirty identical columns: rows 1-11
	// lose their best column to row 0 and rows 2-11 their runner-up to
	// row 1, so rows 2-11 are deepened to the same listDepth columns. Rows
	// 0-7 take those, and row 8 uses its list up and rescans.
	dup := randRows(rng, 1, 6)[0]
	fullSec := append(repeatRows(dup, 12), randRows(rng, 5, 6)...)
	fullWild := append(repeatRows(dup, 30), randRows(rng, 100, 6)...)
	// A pool of five, smaller than listDepth. Row 2 loses its best and
	// runner-up columns (0 and 1) to rows 0 and 1, so it is deepened to a
	// short list of the whole pool; its collisions resolve from that list,
	// and the last free column, 3, is its link.
	shortSec := [][]float64{{0}, {0}, {0}, {0.5}, {1}}
	shortWild := [][]float64{{0}, {0.125}, {0.5}, {0.75}, {1}}
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
		{name: "short-list", sec: shortSec, wild: shortWild,
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
	for _, c := range cases {
		var ref Stats
		want, err := ReferenceSearch(c.sec, c.wild, &Options{Stats: &ref})
		if err != nil {
			t.Fatal(err)
		}
		var first Stats
		for wi, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s/w=%d", c.name, workers)
			var st Stats
			o := Options{Workers: workers, Stats: &st}
			got, err := Search(bg, c.sec, c.wild, &o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertLinksIdentical(t, name, workers, want, got)
			// Each pop is one iteration of the reference's loop: a link or
			// a collision, which the reference resolves by a rescan.
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
// has the children prepare, scan, deepen and greedy, the children cover at
// least 95% of their parent, and the tree is the same at workers 1 and 8.
func TestSearchPhaseSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sec := genGrid(rng, 300, 12)
	wild := genGrid(rng, 20000, 12)
	var want []string
	for _, c := range []string{"prepare", "scan", "deepen", "greedy"} {
		want = append(want, "nearestlink.search>nearestlink."+c)
	}
	for _, workers := range []int{1, 8} {
		hub := telemetry.NewHub()
		if _, err := Search(telemetry.WithHub(bg, hub), sec, wild, &Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		tree, rootNS, childNS := spanTree(t, hub.Tracer.Snapshot(), "nearestlink.search")
		if fmt.Sprint(tree) != fmt.Sprint(want) {
			t.Errorf("w=%d: span tree %v, want %v", workers, tree, want)
		}
		if float64(childNS) < 0.95*float64(rootNS) {
			t.Errorf("w=%d: children cover %d of %d ns (< 95%%)", workers, childNS, rootNS)
		}
	}
}

// TestRoundSpans pins the spans of a Rounds run: every round is a
// nearestlink.search span with the children prepare, scan, deepen and
// greedy, the same at workers 1 and 8, and its prepare span says whether
// the round rebuilt the engine: never on the link-shaped fixture, whose
// maxima survive every removal, and in round 2 of the fixture whose removal
// changes the weights.
func TestRoundSpans(t *testing.T) {
	want := map[string]string{
		"link-shaped":    "[false false false false]",
		"weights-change": "[false true",
	}
	for _, c := range roundsCases() {
		if want[c.name] == "" {
			continue
		}
		var first string
		for _, workers := range []int{1, 8} {
			hub := telemetry.NewHub()
			if _, err := runRounds(telemetry.WithHub(bg, hub), c, workers); err != nil {
				t.Fatal(err)
			}
			spans := hub.Tracer.Snapshot()
			var searches []uint64
			var rebuilt []any
			for _, s := range spans {
				if s.Name == "nearestlink.search" {
					searches = append(searches, s.ID)
				}
			}
			var tree []string
			for _, id := range searches {
				for _, s := range spans {
					if s.Parent == id {
						tree = append(tree, s.Name)
						if s.Name == "nearestlink.prepare" {
							rebuilt = append(rebuilt, s.Attrs["rebuilt"])
						}
					}
				}
			}
			for k := 0; k < len(searches); k++ {
				got := fmt.Sprint(tree[min(4*k, len(tree)):min(4*k+4, len(tree))])
				if got != "[nearestlink.prepare nearestlink.scan nearestlink.deepen nearestlink.greedy]" {
					t.Errorf("%s w=%d: round %d children %s", c.name, workers, k+1, got)
				}
			}
			got := fmt.Sprint(rebuilt)
			if !strings.HasPrefix(got, want[c.name]) {
				t.Errorf("%s w=%d: rebuilt per round %s, want %s...", c.name, workers, got, want[c.name])
			}
			if workers == 1 {
				first = fmt.Sprint(tree) + got
			} else if fmt.Sprint(tree)+got != first {
				t.Errorf("%s: spans at w=8 differ from w=1", c.name)
			}
		}
	}
}
