package nearestlink

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

var bg = context.Background()

func TestWeights(t *testing.T) {
	a := [][]float64{{2, -8, 0}}
	b := [][]float64{{-4, 1, 0}}
	w, err := Weights(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 0.25 || w[1] != 0.125 {
		t.Errorf("weights = %v", w)
	}
	if w[2] != 1 {
		t.Errorf("constant-dimension weight = %v, want 1", w[2])
	}
}

func TestWeightsDimensionMismatch(t *testing.T) {
	// Ragged rows used to make Weights index past the end of short rows.
	if _, err := Weights([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Weights err = %v, want ErrDimensionMismatch", err)
	}
	if _, err := Weights([][]float64{{1, 2}}, [][]float64{{1, 2, 3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("cross-set Weights err = %v, want ErrDimensionMismatch", err)
	}
}

func TestSearchHandPicked(t *testing.T) {
	// Two security patches; wild pool where the greedy assignment is
	// unambiguous.
	sec := [][]float64{{0}, {10}}
	wild := [][]float64{{9}, {1}, {50}}
	links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d", len(links))
	}
	got := map[int]int{}
	for _, l := range links {
		got[l.Security] = l.Wild
	}
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("assignment = %v, want 0->1, 1->0", got)
	}
}

func TestSearchCollisionResolution(t *testing.T) {
	// Both security patches are nearest to wild[0]; one must fall back to
	// its second choice, and the pair with the smaller distance wins the
	// contested column (greedy global-min order).
	sec := [][]float64{{0}, {0.5}}
	wild := [][]float64{{0.1}, {3}}
	links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, l := range links {
		got[l.Security] = l.Wild
	}
	// sec[0] is 0.1 from wild[0]; sec[1] is 0.4 from wild[0]. sec[0] wins.
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("assignment = %v, want 0->0, 1->1", got)
	}
}

// TestSearchDoesNotMutateInputs checks that normalization weights the
// engine's private copy, never the caller's rows.
func TestSearchDoesNotMutateInputs(t *testing.T) {
	sec := [][]float64{{0, 4}, {0.5, 2}}
	wild := [][]float64{{0.1, 8}, {3, 1}, {2, 2}}
	clone := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = append([]float64(nil), r...)
		}
		return out
	}
	secBefore, wildBefore := clone(sec), clone(wild)
	links, err := Search(bg, sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d", len(links))
	}
	for name, c := range map[string][2][][]float64{"security": {sec, secBefore}, "wild": {wild, wildBefore}} {
		for i := range c[0] {
			for j, v := range c[0][i] {
				if v != c[1][i][j] {
					t.Fatalf("Search mutated %s[%d][%d]: %v != %v", name, i, j, v, c[1][i][j])
				}
			}
		}
	}
}

func TestSearchUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sec := randRows(rng, 40, 5)
	wild := randRows(rng, 200, 5)
	links, err := Search(bg, sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 40 {
		t.Fatalf("links = %d", len(links))
	}
	usedWild := map[int]bool{}
	usedSec := map[int]bool{}
	for _, l := range links {
		if usedWild[l.Wild] {
			t.Fatalf("wild %d linked twice", l.Wild)
		}
		if usedSec[l.Security] {
			t.Fatalf("security %d linked twice", l.Security)
		}
		usedWild[l.Wild] = true
		usedSec[l.Security] = true
		if l.Distance < 0 || math.IsNaN(l.Distance) {
			t.Fatalf("bad distance %v", l.Distance)
		}
	}
}

func TestSearchMoreSecurityThanWild(t *testing.T) {
	sec := [][]float64{{0}, {1}, {2}, {3}}
	wild := [][]float64{{0}, {1}}
	links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d, want min(M,N)=2", len(links))
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(bg, nil, [][]float64{{1}}, nil); !errors.Is(err, ErrNoSecurityPatches) {
		t.Errorf("err = %v", err)
	}
	if _, err := Search(bg, [][]float64{{1}}, nil, nil); !errors.Is(err, ErrNoWildPatches) {
		t.Errorf("err = %v", err)
	}
}

func TestSearchDimensionMismatch(t *testing.T) {
	// A short wild row used to panic inside Weights/dist2; it must now
	// surface as a descriptive error.
	sec := [][]float64{{1, 2}, {3, 4}}
	wild := [][]float64{{1, 2}, {3}}
	if _, err := Search(bg, sec, wild, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Search err = %v, want ErrDimensionMismatch", err)
	} else if !strings.Contains(err.Error(), "wild row 1") {
		t.Errorf("error lacks row detail: %v", err)
	}
	// Mismatch inside the security set itself.
	if _, err := Search(bg, [][]float64{{1, 2}, {3, 4, 5}}, [][]float64{{1, 2}}, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("security mismatch err = %v", err)
	}
	if _, err := KNNSelect(bg, sec, wild, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("KNNSelect err = %v, want ErrDimensionMismatch", err)
	}
	// Matching dims still succeed with normalization disabled too.
	if _, err := Search(bg, sec, [][]float64{{5, 6}}, &Options{DisableNormalization: true}); err != nil {
		t.Errorf("valid dims err = %v", err)
	}
}

func TestSearchCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sec := randRows(rng, 500, 60)
	wild := randRows(rng, 50000, 60)

	// A pre-canceled context aborts before any scanning.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, sec, wild, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Search err = %v, want context.Canceled", err)
	}
	if _, err := KNNSelect(ctx, sec, wild, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled KNNSelect err = %v, want context.Canceled", err)
	}

	// Cancellation mid-search aborts promptly: the scan phase checks ctx
	// between row chunks, so the 500×50k search (well over a millisecond
	// of work) must return the wrapped error long before completing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err := Search(ctx2, sec, wild, &Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight Search err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("error not descriptive: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

func TestSearchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sec := randRows(rng, 20, 4)
	wild := randRows(rng, 80, 4)
	var st Stats
	links, err := Search(bg, sec, wild, &Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.SecurityRows != 20 || st.WildCols != 80 {
		t.Errorf("stats dims = %+v", st)
	}
	if st.Duration <= 0 {
		t.Errorf("duration = %v", st.Duration)
	}
	if st.Rescans < 0 {
		t.Errorf("rescans = %d", st.Rescans)
	}
	if st.HeapPops < 20 {
		t.Errorf("heap pops = %d, want >= one per assigned row", st.HeapPops)
	}
	if st.DistanceEvals <= 0 {
		t.Errorf("distance evals = %d", st.DistanceEvals)
	}
	if st.PrunedFraction < 0 || st.PrunedFraction > 1 {
		t.Errorf("pruned fraction = %v", st.PrunedFraction)
	}
	if len(links) != 20 {
		t.Errorf("links = %d", len(links))
	}

	var kst Stats
	if _, err := KNNSelect(bg, sec, wild, &Options{Stats: &kst}); err != nil {
		t.Fatal(err)
	}
	if kst.SecurityRows != 20 || kst.WildCols != 80 || kst.Duration <= 0 {
		t.Errorf("knn stats = %+v", kst)
	}

	var tot Totals
	tot.Add(st)
	tot.Add(kst)
	if tot.Searches != 2 || tot.DistanceEvals != st.DistanceEvals+kst.DistanceEvals {
		t.Errorf("totals = %+v", tot)
	}
	if s := tot.String(); !strings.Contains(s, "searches=2") {
		t.Errorf("totals string = %q", s)
	}
}

func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sec := randRows(rng, 30, 8)
	wild := randRows(rng, 120, 8)
	l1, err := Search(bg, sec, wild, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l8, err := Search(bg, sec, wild, &Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) != len(l8) {
		t.Fatalf("lengths differ: %d vs %d", len(l1), len(l8))
	}
	m1 := map[int]int{}
	for _, l := range l1 {
		m1[l.Security] = l.Wild
	}
	for _, l := range l8 {
		if m1[l.Security] != l.Wild {
			t.Fatalf("worker count changed assignment for security %d", l.Security)
		}
	}
}

// TestStatsDeterministicAcrossWorkers pins the deterministic-counter
// contract of the blocked scan: at a fixed (blockRows, shardCols) the task
// grid, every task's visit order, every pruning bound and the set of rows
// deepening scans are independent of the worker count, and rescans run
// serially in the greedy order, so the full Stats accounting — not just
// the links — must be bit-identical at workers 1, 2, and 8. Duration is
// wall-clock telemetry and is excluded.
func TestStatsDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// A generic instance, and a tie-heavy one that deepens rows and whose
	// greedy phase rescans.
	instances := []struct {
		name      string
		sec, wild [][]float64
	}{
		{"gaussian", randRows(rng, 45, 12), randRows(rng, 700, 12)},
		{"duplicates", genDuplicates(rng, 45, 12), genDuplicates(rng, 700, 12)},
	}
	for _, in := range instances {
		// blockRows 8 and shardCols 128 give a 6x6 task grid at this shape,
		// so the counters really do merge across many concurrently scanned
		// cells.
		base := Options{blockRows: 8, shardCols: 128}
		var want Stats
		var wantLinks []Link
		for wi, workers := range []int{1, 2, 8} {
			o := base
			o.Workers = workers
			var st Stats
			o.Stats = &st
			links, err := Search(bg, in.sec, in.wild, &o)
			if err != nil {
				t.Fatalf("%s w=%d: %v", in.name, workers, err)
			}
			st.Duration = 0
			if wi == 0 {
				want, wantLinks = st, links
				if in.name == "duplicates" && st.Rescans == 0 {
					t.Errorf("%s: no rescans; the rescan counters are untested", in.name)
				}
				if in.name == "duplicates" && deepenedRows(t, in.sec, in.wild, base) == 0 {
					t.Errorf("%s: no row deepened; the deepening counters are untested", in.name)
				}
				continue
			}
			if st != want {
				t.Errorf("%s w=%d: stats diverge:\n got %+v\nwant %+v", in.name, workers, st, want)
			}
			if len(links) != len(wantLinks) {
				t.Fatalf("%s w=%d: %d links, want %d", in.name, workers, len(links), len(wantLinks))
			}
			for k := range links {
				if links[k] != wantLinks[k] {
					t.Fatalf("%s w=%d: link %d = %+v, want %+v", in.name, workers, k, links[k], wantLinks[k])
				}
			}
		}
	}
}

// TestLinksInvariantAcrossBlockAndShard pins the other half of the contract:
// blockRows and shardCols move pruning decisions between stages (the
// counters may change) but may never change the links. Every combination —
// including degenerate single-row blocks and shards smaller than one sweep
// tile — must reproduce the reference assignment bit-for-bit.
func TestLinksInvariantAcrossBlockAndShard(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sec := genGrid(rng, 35, 9) // tie-heavy: the regime where a merge bug shows
	wild := genGrid(rng, 900, 9)
	want, err := ReferenceSearch(sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockRows := range []int{1, 3, 16, 64} {
		for _, shardCols := range []int{32, 100, 1000} {
			got, err := Search(bg, sec, wild,
				&Options{Workers: 4, blockRows: blockRows, shardCols: shardCols})
			if err != nil {
				t.Fatalf("block=%d shard=%d: %v", blockRows, shardCols, err)
			}
			assertLinksIdentical(t, fmt.Sprintf("block=%d/shard=%d", blockRows, shardCols), 4, want, got)
		}
	}
}

func TestNormalizationMatters(t *testing.T) {
	// Dimension 1 has a huge scale (set by wild[2]); unnormalized, wild[0]'s
	// small dim-1 offset (10) dominates its zero dim-0 distance and wild[1]
	// wins. Normalized, dim-1 shrinks by 1/1000 and wild[0] wins.
	sec := [][]float64{{1, 0}}
	wild := [][]float64{{1, 10}, {2, 0}, {0, 1000}}
	raw, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := Search(bg, sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0].Wild != 1 {
		t.Errorf("unnormalized picked %d, want 1 (raw dim-1 dominates)", raw[0].Wild)
	}
	if norm[0].Wild != 0 {
		t.Errorf("normalized picked %d, want 0 (dim-1 rescaled away)", norm[0].Wild)
	}
}

func TestKNNSelectAllowsFewer(t *testing.T) {
	// Two security patches share the same nearest wild patch; KNN dedups to
	// one candidate while nearest link yields two.
	sec := [][]float64{{0}, {0.1}}
	wild := [][]float64{{0.05}, {9}}
	knn, err := KNNSelect(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(knn) != 1 || knn[0] != 0 {
		t.Errorf("knn = %v, want [0]", knn)
	}
	links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Errorf("nearest link = %d links, want 2 (one-to-one)", len(links))
	}
}

func TestDistanceMatrix(t *testing.T) {
	d, err := DistanceMatrix([][]float64{{0, 0}, {3, 4}}, [][]float64{{0, 0}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if d[0][0] != 0 || d[1][0] != 5 {
		t.Errorf("matrix = %v", d)
	}
	// Ragged rows used to panic; they must error instead.
	if _, err := DistanceMatrix([][]float64{{0, 0}, {3}}, [][]float64{{0, 0}}, true); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged err = %v, want ErrDimensionMismatch", err)
	}
}

func TestTotalDistance(t *testing.T) {
	links := []Link{{Distance: 1.5}, {Distance: 2.5}}
	if TotalDistance(links) != 4 {
		t.Errorf("total = %v", TotalDistance(links))
	}
}

// TestGreedyClosestPairAlwaysLinked asserts the structural invariant greedy
// guarantees: the globally closest pair is always linked first.
func TestGreedyClosestPairAlwaysLinked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		sec := randRows(rng, 4, 3)
		wild := randRows(rng, 10, 3)
		links, err := Search(bg, sec, wild, &Options{DisableNormalization: true})
		if err != nil {
			t.Fatal(err)
		}
		// Find the global minimum pair by brute force.
		bestD := math.Inf(1)
		bestM, bestN := -1, -1
		for m := range sec {
			for n := range wild {
				if d := dist2(sec[m], wild[n]); d < bestD {
					bestD = d
					bestM, bestN = m, n
				}
			}
		}
		found := false
		for _, l := range links {
			if l.Security == bestM && l.Wild == bestN {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: global closest pair (%d,%d) not linked: %v", trial, bestM, bestN, links)
		}
	}
}

// TestKernelEquivalence pins the exactness contract of the screens the scan
// kernel runs: the 16-segment norm bound, and the prefix screen (with the
// tail segments' bound folded in) followed by the tail screen. They read
// screen-order (permuted) dimensions, and none of them may reject a pair
// against a bound that its reference-order dist2 meets or ties — their
// rejections must be conservative under the reordering error of float64
// summation. The shaded norm bound must never exceed the true squared
// distance either.
func TestKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 400; trial++ {
		d := 1 + rng.Intn(100)
		a, b := make([]float64, d), make([]float64, d)
		for j := range a {
			if trial%2 == 0 {
				a[j] = rng.NormFloat64() * 10
				b[j] = rng.NormFloat64() * 10
			} else {
				// Binary-exact grid values: exact ties and zero gaps abound.
				a[j] = 0.5 * float64(rng.Intn(4))
				b[j] = 0.5 * float64(rng.Intn(4))
			}
		}
		want := dist2(a, b)

		// Screen order, split into prefix and tail as the engine does.
		perm := rng.Perm(d)
		sa, sb := make([]float64, d), make([]float64, d)
		permute(sa, a, perm)
		permute(sb, b, perm)
		pw := min(screenPrefix, d)
		ua, ub := make([]float64, nseg), make([]float64, nseg)
		fillSegNorms(ua, sa[:pw], sa[pw:])
		fillSegNorms(ub, sb[:pw], sb[pw:])
		segLb, tailLb := 0.0, 0.0
		for g := range ua {
			gap := ua[g] - ub[g]
			segLb += gap * gap
			if g >= segPre {
				tailLb += gap * gap
			}
		}

		// survives runs the kernel's ladder against bound: the segment
		// bound, then the prefix screen with the tail bound, then the tail
		// screen.
		survives := func(bound float64) bool {
			if segLb*normBoundShade > bound {
				return false
			}
			pd, ok := prefixScreen(sa[:pw], sb[:pw], tailLb*normBoundShade, bound*screenSlack)
			return ok && screenTailDist2(sa[pw:], sb[pw:], pd, bound)
		}
		// No false rejection: any bound the reference-order value meets or
		// ties must survive every stage.
		for _, bound := range []float64{want, want * 1.000001, want + 1, want * 4, inf} {
			if !survives(bound) {
				t.Fatalf("trial %d: ladder rejected dist %v against bound %v", trial, want, bound)
			}
		}
		// True rejection against a bound clearly below the distance.
		if want > 0 && survives(want/2) {
			t.Fatalf("trial %d: bound %v not honored for dist %v", trial, want/2, want)
		}
		na, nb := math.Sqrt(dot(a, a)), math.Sqrt(dot(b, b))
		diff := na - nb
		if lb := diff * diff * normBoundShade; lb > want {
			t.Fatalf("trial %d: norm bound %v exceeds true distance %v", trial, lb, want)
		}
		if lb := segLb * normBoundShade; lb > want {
			t.Fatalf("trial %d: segment bound %v exceeds true distance %v", trial, lb, want)
		}
	}
}

// TestNonFiniteRejected pins the input contract for NaN and ±Inf features:
// every entry point returns a wrapped ErrNonFinite naming the set, row and
// column, with normalization on and off, instead of panicking (the engine)
// or silently dropping links (the reference).
func TestNonFiniteRejected(t *testing.T) {
	type entry struct {
		name string
		run  func(sec, wild [][]float64, o *Options) error
	}
	entries := []entry{
		{"Search", func(sec, wild [][]float64, o *Options) error {
			_, err := Search(bg, sec, wild, o)
			return err
		}},
		{"KNNSelect", func(sec, wild [][]float64, o *Options) error {
			_, err := KNNSelect(bg, sec, wild, o)
			return err
		}},
		{"ReferenceSearch", func(sec, wild [][]float64, o *Options) error {
			_, err := ReferenceSearch(sec, wild, o)
			return err
		}},
		{"Weights", func(sec, wild [][]float64, _ *Options) error {
			_, err := Weights(sec, wild)
			return err
		}},
		{"DistanceMatrix", func(sec, wild [][]float64, o *Options) error {
			_, err := DistanceMatrix(sec, wild, !o.DisableNormalization)
			return err
		}},
	}
	bad := []struct {
		name string
		v    float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}}
	for _, e := range entries {
		for _, b := range bad {
			for set, setName := range []string{"security", "wild"} {
				for _, disableNorm := range []bool{false, true} {
					rng := rand.New(rand.NewSource(5))
					sec, wild := randRows(rng, 6, 4), randRows(rng, 30, 4)
					rows := sec
					if set == 1 {
						rows = wild
					}
					rows[3][2] = b.v
					name := fmt.Sprintf("%s/%s/%s/norm=%v", e.name, b.name, setName, !disableNorm)
					err := e.run(sec, wild, &Options{DisableNormalization: disableNorm})
					if !errors.Is(err, ErrNonFinite) {
						t.Errorf("%s: err = %v, want ErrNonFinite", name, err)
						continue
					}
					if want := setName + " row 3 column 2"; !strings.Contains(err.Error(), want) {
						t.Errorf("%s: error %q lacks %q", name, err, want)
					}
				}
			}
		}
	}

	// Non-finite values spread over several row chunks: the parallel
	// passes must still name the lowest (set, row, column), with the same
	// error text at any worker count.
	spread := []struct {
		name string
		bad  func(sec, wild [][]float64)
		want string
	}{
		{"wild", func(sec, wild [][]float64) {
			wild[50][2] = math.Inf(-1)
			wild[31][0] = math.NaN()
			wild[9][4] = math.Inf(1)
			wild[9][3] = math.NaN()
		}, "wild row 9 column 3"},
		{"security-first", func(sec, wild [][]float64) {
			wild[2][1] = math.NaN()
			sec[37][0] = math.Inf(1)
			sec[33][1] = math.NaN()
		}, "security row 33 column 1"},
	}
	for _, e := range entries {
		for _, c := range spread {
			for _, disableNorm := range []bool{false, true} {
				name := fmt.Sprintf("%s/spread-%s/norm=%v", e.name, c.name, !disableNorm)
				var texts []string
				for _, workers := range []int{1, 8} {
					rng := rand.New(rand.NewSource(7))
					sec, wild := randRows(rng, 40, 5), randRows(rng, 64, 5)
					c.bad(sec, wild)
					err := e.run(sec, wild, &Options{DisableNormalization: disableNorm, Workers: workers})
					if !errors.Is(err, ErrNonFinite) {
						t.Fatalf("%s w=%d: err = %v, want ErrNonFinite", name, workers, err)
					}
					if !strings.Contains(err.Error(), c.want) {
						t.Errorf("%s w=%d: error %q lacks %q", name, workers, err, c.want)
					}
					texts = append(texts, err.Error())
				}
				if texts[0] != texts[1] {
					t.Errorf("%s: error text differs across workers: %q vs %q", name, texts[0], texts[1])
				}
			}
		}
	}
}

// TestKNNSelectMatchesBruteForce pins which columns KNNSelect picks: every
// security row's first-index argmin of the reference-order distance over
// the whole weighted pool, deduplicated in row order. Tie-heavy generators,
// several seeds, two worker counts and multi-cell task grids cover the
// blocked kernel's merge and tie-break paths.
func TestKNNSelectMatchesBruteForce(t *testing.T) {
	gens := []struct {
		name string
		fn   func(*rand.Rand, int, int) [][]float64
	}{
		{"gaussian", genGaussian},
		{"grid", genGrid},
		{"duplicates", genDuplicates},
	}
	for _, g := range gens {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sec := g.fn(rng, 37, 9)
			wild := g.fn(rng, 500, 9)
			w, err := Weights(sec, wild)
			if err != nil {
				t.Fatal(err)
			}
			ws, ww := weightedRows(sec, w), weightedRows(wild, w)
			var want []int
			seen := map[int]bool{}
			for _, row := range ws {
				best, bestJ := inf, -1
				for j, col := range ww {
					if d := dist2(row, col); d < best {
						best, bestJ = d, j
					}
				}
				if !seen[bestJ] {
					seen[bestJ] = true
					want = append(want, bestJ)
				}
			}
			for _, workers := range []int{1, 3} {
				for _, grid := range [][2]int{{0, 0}, {4, 64}, {1, 37}} {
					o := &Options{Workers: workers, blockRows: grid[0], shardCols: grid[1]}
					got, err := KNNSelect(bg, sec, wild, o)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/seed=%d/w=%d/grid=%v", g.name, seed, workers, grid)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: KNNSelect = %v, brute force %v", name, got, want)
					}
				}
			}
		}
	}
}

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// overflowCases are finite inputs whose squared distances, norms or segment
// norms overflow to +Inf when searched without normalization.
func overflowCases() []struct {
	name      string
	sec, wild [][]float64
} {
	rng := rand.New(rand.NewSource(11))
	scaled := func(n, d int, scales ...float64) [][]float64 {
		rows := randRows(rng, n, d)
		for i, row := range rows {
			for j := range row {
				row[j] *= scales[i%len(scales)]
			}
		}
		return rows
	}
	return []struct {
		name      string
		sec, wild [][]float64
	}{
		// Every distance is +Inf: no row has a column to take.
		{"all-overflow", [][]float64{{1e200}}, [][]float64{{-1e200}}},
		{"all-overflow-many", scaled(4, 3, 1e200), scaled(6, 3, -1e200, 1e201)},
		// Row 0 overflows against every column; rows 1 and 2 link.
		{"mixed-rows", [][]float64{{1e200, 0}, {1, 1}, {2, 2}},
			[][]float64{{-1e200, 0}, {1.5, 1}, {0, 0}, {3, 3}}},
		// The security norm overflows, the distances do not: a +Inf norm
		// gap must not reject the finite-norm columns.
		{"overflowed-norm", [][]float64{{1e154, 1e154}},
			[][]float64{{1e154, 0.8e154}, {1e154, 0.7e154}}},
		// Wide, multi-scale rows: norms and segment norms overflow on both
		// sides, collisions force rescans, and the pool outgrows the
		// seeded-bound sample.
		{"mixed-scales", scaled(40, 20, 1, 1e153, 1e155, 1e200),
			scaled(400, 20, 1, 1e153, 1e154, 1e155, -1e200)},
	}
}

// TestOverflowDistances pins the contract for finite features whose
// squared distances overflow: a row with no finite distance gets no link,
// and every link is bit-identical to ReferenceSearch, for Search at
// several worker counts and task grids. KNNSelect picks
// each row's first-index finite argmin, or nothing for a row without one.
func TestOverflowDistances(t *testing.T) {
	for _, c := range overflowCases() {
		for _, disableNorm := range []bool{true, false} {
			want, err := ReferenceSearch(c.sec, c.wild, &Options{DisableNormalization: disableNorm})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				for _, grid := range [][2]int{{0, 0}, {4, 64}, {1, 7}} {
					name := fmt.Sprintf("%s/norm=%v/w=%d/grid=%v", c.name, !disableNorm, workers, grid)
					got, err := Search(bg, c.sec, c.wild, &Options{Workers: workers,
						DisableNormalization: disableNorm, blockRows: grid[0], shardCols: grid[1]})
					if err != nil {
						t.Fatalf("%s: Search: %v", name, err)
					}
					assertLinksIdentical(t, name+"/Search", workers, want, got)
				}
			}
			if !disableNorm {
				continue
			}
			var knn []int
			seen := map[int]bool{}
			for _, row := range c.sec {
				best, bestJ := inf, -1
				for j, col := range c.wild {
					if d := dist2(row, col); d < best {
						best, bestJ = d, j
					}
				}
				if bestJ >= 0 && !seen[bestJ] {
					seen[bestJ] = true
					knn = append(knn, bestJ)
				}
			}
			got, err := KNNSelect(bg, c.sec, c.wild, &Options{DisableNormalization: true, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(knn) {
				t.Errorf("%s: KNNSelect = %v, brute force %v", c.name, got, knn)
			}
		}
	}
}
