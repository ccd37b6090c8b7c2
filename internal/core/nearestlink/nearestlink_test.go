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
	// unambiguous. The max-abs is a power of two, so the weighted values
	// are exact.
	sec := [][]float64{{0}, {10}}
	wild := [][]float64{{9}, {1}, {64}}
	links, err := Search(bg, sec, wild, nil)
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
	// contested column (greedy global-min order). The max-abs is a power
	// of two, so weighting scales every distance exactly.
	sec := [][]float64{{0}, {0.5}}
	wild := [][]float64{{0.1}, {4}}
	links, err := Search(bg, sec, wild, nil)
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
	links, err := Search(bg, sec, wild, nil)
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
	// Matching dims still succeed.
	if _, err := Search(bg, sec, [][]float64{{5, 6}}, nil); err != nil {
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
	if pf := st.PrunedFraction(); pf < 0 || pf > 1 {
		t.Errorf("pruned fraction = %v", pf)
	}
	if len(links) != 20 {
		t.Errorf("links = %d", len(links))
	}

	var tot Totals
	tot.Add(st)
	tot.Add(st)
	if tot.Searches != 2 || tot.DistanceEvals != 2*st.DistanceEvals {
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
// contract of the blocked scan: the blocks, every task's visit order, every
// pruning bound and the set of rows deepening scans are independent of the
// worker count, and rescans run serially in the greedy order, so the full
// Stats accounting — not just the links — must be bit-identical at workers
// 1, 2, and 8. Duration is wall-clock telemetry and is excluded.
func TestStatsDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// A generic instance, and a tie-heavy one that deepens rows and whose
	// greedy phase rescans. 45 rows are two full blocks and a partial one,
	// so the counters really do merge across concurrently scanned blocks.
	instances := []struct {
		name      string
		sec, wild [][]float64
	}{
		{"gaussian", randRows(rng, 45, 12), randRows(rng, 700, 12)},
		{"duplicates", genDuplicates(rng, 45, 12), genDuplicates(rng, 700, 12)},
	}
	for _, in := range instances {
		var want Stats
		var wantLinks []Link
		for wi, workers := range []int{1, 2, 8} {
			var st Stats
			links, err := Search(bg, in.sec, in.wild, &Options{Workers: workers, Stats: &st})
			if err != nil {
				t.Fatalf("%s w=%d: %v", in.name, workers, err)
			}
			st.Duration = 0
			if wi == 0 {
				want, wantLinks = st, links
				if in.name == "duplicates" && st.Rescans == 0 {
					t.Errorf("%s: no rescans; the rescan counters are untested", in.name)
				}
				if in.name == "duplicates" && deepenedRows(t, in.sec, in.wild, Options{}) == 0 {
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

// TestLinksAcrossBlockShapes covers the ways a plan's rows fill its blocks
// of blockRows: one row, one short block, an exact block, one past it, and
// several blocks with a partial last one. On tie-heavy instances, whose
// greedy phases use both the candidate lists and rescans, every shape must
// reproduce the reference assignment bit-for-bit at workers 1, 2 and 8,
// with the same Stats at every worker count.
func TestLinksAcrossBlockShapes(t *testing.T) {
	gens := []struct {
		name string
		fn   func(*rand.Rand, int, int) [][]float64
	}{
		{"grid", genGrid},
		{"duplicates", genDuplicates},
	}
	var hits, rescans int
	for _, g := range gens {
		for _, m := range []int{1, 15, blockRows, blockRows + 1, 37, 100} {
			rng := rand.New(rand.NewSource(int64(19 + m)))
			sec := g.fn(rng, m, 9)
			wild := g.fn(rng, 900, 9)
			want, err := ReferenceSearch(sec, wild, nil)
			if err != nil {
				t.Fatal(err)
			}
			var first Stats
			for wi, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/m=%d/w=%d", g.name, m, workers)
				var st Stats
				got, err := Search(bg, sec, wild, &Options{Workers: workers, Stats: &st})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertLinksIdentical(t, name, workers, want, got)
				st.Duration = 0
				if wi == 0 {
					first = st
					hits += st.SecondBestHits
					rescans += st.Rescans
				} else if st != first {
					t.Errorf("%s: stats diverge:\n got %+v\nwant %+v", name, st, first)
				}
			}
		}
	}
	if hits == 0 || rescans == 0 {
		t.Errorf("list hits %d, rescans %d; want both paths exercised", hits, rescans)
	}
}

func TestNormalizationMatters(t *testing.T) {
	// Dimension 1 has a huge scale (set by wild[2]); unweighted, wild[0]'s
	// small dim-1 offset (10) dominates its zero dim-0 distance and wild[1]
	// is the raw nearest. Weighted, dim-1 shrinks by 1/1000 and wild[0]
	// wins.
	sec := [][]float64{{1, 0}}
	wild := [][]float64{{1, 10}, {2, 0}, {0, 1000}}
	if d0, d1 := dist2(sec[0], wild[0]), dist2(sec[0], wild[1]); d1 >= d0 {
		t.Fatalf("raw distances %v, %v: want wild[1] nearest unweighted", d0, d1)
	}
	links, err := Search(bg, sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if links[0].Wild != 0 {
		t.Errorf("weighted search picked %d, want 0 (dim-1 rescaled away)", links[0].Wild)
	}
}

// TestGreedyClosestPairAlwaysLinked asserts the structural invariant greedy
// guarantees: the globally closest pair is always linked first.
func TestGreedyClosestPairAlwaysLinked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		sec := randRows(rng, 4, 3)
		wild := randRows(rng, 10, 3)
		links, err := Search(bg, sec, wild, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Find the global minimum pair of the weighted rows by brute force.
		w, err := Weights(sec, wild)
		if err != nil {
			t.Fatal(err)
		}
		ws, ww := weightedRows(sec, w), weightedRows(wild, w)
		bestD := math.Inf(1)
		bestM, bestN := -1, -1
		for m := range ws {
			for n := range ww {
				if d := dist2(ws[m], ww[n]); d < bestD {
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
// kernel runs: the 16-segment norm bound, and screen with the tail
// segments' bound added over the prefix. They sum in their own order, so
// here they read randomly permuted dimensions, and neither may reject a
// pair against a bound that its reference-order dist2 meets or ties — their
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

		// A random dimension order, split into prefix and tail as the
		// engine does.
		sa, sb := make([]float64, d), make([]float64, d)
		for k, j := range rng.Perm(d) {
			sa[k], sb[k] = a[j], b[j]
		}
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
		// bound, then the screen with the tail bound over the prefix.
		survives := func(bound float64) bool {
			return segLb*normBoundShade <= bound &&
				screen(sa, sb, pw, tailLb*normBoundShade, bound*screenSlack)
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

// TestSubnormalMaxAbsRejected pins the input contract for a finite
// dimension whose largest |value| is subnormal: its max-abs weight 1/max
// overflows to +Inf, and Inf·0 distances would leave rows without links.
// Every entry point returns a wrapped ErrNonFinite naming the dimension
// instead.
func TestSubnormalMaxAbsRejected(t *testing.T) {
	sec := [][]float64{{5e-324, 1}, {0, 2}}
	wild := [][]float64{{0, 1}, {5e-324, 2}, {0, 3}}
	entries := []struct {
		name string
		run  func(o *Options) error
	}{
		{"Search", func(o *Options) error {
			_, err := Search(bg, sec, wild, o)
			return err
		}},
		{"ReferenceSearch", func(o *Options) error {
			_, err := ReferenceSearch(sec, wild, o)
			return err
		}},
		{"Weights", func(*Options) error {
			_, err := Weights(sec, wild)
			return err
		}},
		{"VerifySampled", func(o *Options) error {
			_, err := VerifySampled(sec, wild, []Link{{0, 0, 0}}, o, 1, 1)
			return err
		}},
	}
	for _, e := range entries {
		err := e.run(&Options{})
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: err = %v, want ErrNonFinite", e.name, err)
			continue
		}
		if !strings.Contains(err.Error(), "dimension 0") {
			t.Errorf("%s: error %q does not name dimension 0", e.name, err)
		}
	}
}

// TestNonFiniteRejected pins the input contract for NaN and ±Inf features:
// every entry point returns a wrapped ErrNonFinite naming the set, row and
// column, instead of panicking (the engine) or silently dropping links (the
// reference).
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
		{"ReferenceSearch", func(sec, wild [][]float64, o *Options) error {
			_, err := ReferenceSearch(sec, wild, o)
			return err
		}},
		{"Weights", func(sec, wild [][]float64, _ *Options) error {
			_, err := Weights(sec, wild)
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
				rng := rand.New(rand.NewSource(5))
				sec, wild := randRows(rng, 6, 4), randRows(rng, 30, 4)
				rows := sec
				if set == 1 {
					rows = wild
				}
				rows[3][2] = b.v
				name := fmt.Sprintf("%s/%s/%s", e.name, b.name, setName)
				err := e.run(sec, wild, &Options{})
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
			name := fmt.Sprintf("%s/spread-%s", e.name, c.name)
			var texts []string
			for _, workers := range []int{1, 8} {
				rng := rand.New(rand.NewSource(7))
				sec, wild := randRows(rng, 40, 5), randRows(rng, 64, 5)
				c.bad(sec, wild)
				err := e.run(sec, wild, &Options{Workers: workers})
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

// overflowCases are finite inputs whose raw squared distances, norms or
// segment norms overflow to +Inf. Weighting maps every value into [-1, 1],
// so none of them overflows in the search.
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
		// Every raw distance is +Inf.
		{"all-overflow", [][]float64{{1e200}}, [][]float64{{-1e200}}},
		{"all-overflow-many", scaled(4, 3, 1e200), scaled(6, 3, -1e200, 1e201)},
		// Row 0's raw distance to every column overflows.
		{"mixed-rows", [][]float64{{1e200, 0}, {1, 1}, {2, 2}},
			[][]float64{{-1e200, 0}, {1.5, 1}, {0, 0}, {3, 3}}},
		// The raw security norm overflows, the raw distances do not.
		{"overflowed-norm", [][]float64{{1e154, 1e154}},
			[][]float64{{1e154, 0.8e154}, {1e154, 0.7e154}}},
		// Wide, multi-scale rows: raw norms and segment norms overflow on
		// both sides, and collisions force rescans.
		{"mixed-scales", scaled(40, 20, 1, 1e153, 1e155, 1e200),
			scaled(400, 20, 1, 1e153, 1e154, 1e155, -1e200)},
	}
}

// TestOverflowDistances pins the normalized-input contract on finite
// features whose raw distances or norms overflow: weighted, every row links
// (min(M, N) links), every distance is at most 2·sqrt(d), and the links are
// bit-identical to ReferenceSearch at several worker counts.
func TestOverflowDistances(t *testing.T) {
	for _, c := range overflowCases() {
		want, err := ReferenceSearch(c.sec, c.wild, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := min(len(c.sec), len(c.wild)); len(want) != n {
			t.Fatalf("%s: reference %d links, want %d", c.name, len(want), n)
		}
		limit := 2 * math.Sqrt(float64(len(c.sec[0]))) * (1 + 1e-12)
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s/w=%d", c.name, workers)
			got, err := Search(bg, c.sec, c.wild, &Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: Search: %v", name, err)
			}
			assertLinksIdentical(t, name, workers, want, got)
			for _, l := range got {
				if l.Distance > limit {
					t.Fatalf("%s: link %+v above 2·sqrt(d) = %v", name, l, limit)
				}
			}
		}
	}
}
