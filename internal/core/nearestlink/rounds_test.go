package nearestlink

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// roundsCase is a multi-round fixture. Each round removes its linked
// columns and promotes those whose link has an odd Security+Wild.
type roundsCase struct {
	name      string
	sec, wild [][]float64
}

// intRows draws integer-valued rows in [0, 5]: like extracted feature
// counts, every dimension's maximum is attained by many rows, so removals
// leave the weights as they are.
func intRows(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = float64(rng.Intn(6))
		}
	}
	return out
}

func roundsCases() []roundsCase {
	rng := rand.New(rand.NewSource(31))
	// Wild row 0 copies security row 0 except in dimension 0, where it
	// holds the only value above 10. Its weighted distance to security row
	// 0 is about 1, every other pair's is several times that, so round 1
	// links the two first and does not promote the column. Round 2 then
	// has dimension 0 weighted 1/10 instead of 1/1000.
	wcSec, wcWild := randRows(rng, 30, 24), randRows(rng, 200, 24)
	for _, row := range append(slices.Clip(wcSec), wcWild...) {
		row[0] = 10 * rng.Float64()
	}
	wcWild[0] = slices.Clone(wcSec[0])
	wcWild[0][0] = 1000
	return []roundsCase{
		{name: "link-shaped", sec: intRows(rng, 40, 60), wild: intRows(rng, 1500, 60)},
		{name: "weights-change", sec: wcSec, wild: wcWild},
		{name: "grid", sec: genGrid(rng, 60, 3), wild: genGrid(rng, 400, 3)},
		{name: "gaussian", sec: randRows(rng, 30, 10), wild: randRows(rng, 300, 10)},
		{name: "pool-below-security", sec: intRows(rng, 50, 8), wild: intRows(rng, 80, 8)},
	}
}

// roundRun is one round of a Rounds run: the inputs it searched, its links,
// and its Stats with Duration zeroed.
type roundRun struct {
	sec, wild [][]float64
	links     []Link
	stats     Stats
}

// runRounds runs c for up to four rounds, or until the pool is empty, at
// workers, and returns every round.
func runRounds(ctx context.Context, c roundsCase, workers int) ([]roundRun, error) {
	var st Stats
	r := NewRounds(c.sec, c.wild, &Options{Workers: workers, Stats: &st})
	defer r.Close()
	sec, wild := c.sec, c.wild
	var out []roundRun
	for round := 1; round <= 4 && len(wild) > 0; round++ {
		links, err := r.Search(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s w=%d round %d: %w", c.name, workers, round, err)
		}
		st.Duration = 0
		out = append(out, roundRun{sec, wild, links, st})
		removed := make([]int, 0, len(links))
		var promoted []int
		gone := make([]bool, len(wild))
		sec = slices.Clip(sec)
		for _, l := range links {
			removed = append(removed, l.Wild)
			gone[l.Wild] = true
			if (l.Security+l.Wild)%2 == 1 {
				promoted = append(promoted, l.Wild)
				sec = append(sec, wild[l.Wild])
			}
		}
		var next [][]float64
		for j, row := range wild {
			if !gone[j] {
				next = append(next, row)
			}
		}
		wild = next
		if err := r.Remove(removed, promoted); err != nil {
			return nil, fmt.Errorf("%s w=%d round %d: Remove: %w", c.name, workers, round, err)
		}
	}
	return out, nil
}

// TestRoundsMatchFromScratch is the multi-round contract of Rounds: in
// every round, the links are bit-identical to a from-scratch Search on that
// round's inputs and to ReferenceSearch, at workers 1, 2 and 8, and Stats
// are identical across those worker counts. The fixtures reach a removal
// that changes the weights, a tie-heavy grid, Gaussian rows whose maxima
// are each attained once, and a pool that shrinks below the number of
// security rows.
func TestRoundsMatchFromScratch(t *testing.T) {
	for _, c := range roundsCases() {
		var first []roundRun
		for _, workers := range []int{1, 2, 8} {
			runs, err := runRounds(bg, c, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) < 2 {
				t.Fatalf("%s w=%d: %d rounds, want >= 2", c.name, workers, len(runs))
			}
			for k, run := range runs {
				name := fmt.Sprintf("%s/round %d", c.name, k+1)
				o := &Options{Workers: workers}
				want, err := ReferenceSearch(run.sec, run.wild, o)
				if err != nil {
					t.Fatal(err)
				}
				assertLinksIdentical(t, name+"/reference", workers, want, run.links)
				fresh, err := Search(bg, run.sec, run.wild, o)
				if err != nil {
					t.Fatal(err)
				}
				assertLinksIdentical(t, name+"/from-scratch", workers, fresh, run.links)
				if first != nil && run.stats != first[k].stats {
					t.Errorf("%s w=%d: stats diverge:\n got %+v\nwant %+v", name, workers, run.stats, first[k].stats)
				}
			}
			if first == nil {
				first = runs
			}
		}
		if last := first[len(first)-1]; c.name == "pool-below-security" && len(last.wild) >= len(last.sec) {
			t.Errorf("%s: last round searched %d columns for %d rows; want fewer columns", c.name, len(last.wild), len(last.sec))
		}
	}
}

// TestRoundsConcurrent runs every fixture's rounds at once, each on its own
// goroutine and pooled buffers, and requires each run's links to match a
// run of its own alone.
func TestRoundsConcurrent(t *testing.T) {
	cases := roundsCases()
	want := make([][]roundRun, len(cases))
	for i, c := range cases {
		runs, err := runRounds(bg, c, 2)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = runs
	}
	got := make([][]roundRun, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runRounds(bg, c, 2)
		}()
	}
	wg.Wait()
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: %d rounds, alone %d", c.name, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			assertLinksIdentical(t, fmt.Sprintf("%s/round %d/concurrent", c.name, k+1), 2, want[i][k].links, got[i][k].links)
		}
	}
}

// TestRoundsRemoveErrors pins Remove's validation: out-of-range, repeated
// and non-removed promoted columns, and a second Remove before a Search.
func TestRoundsRemoveErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	sec, wild := randRows(rng, 3, 4), randRows(rng, 10, 4)
	cases := []struct {
		name              string
		removed, promoted []int
	}{
		{"out of range", []int{10}, nil},
		{"negative", []int{-1}, nil},
		{"repeated", []int{2, 2}, nil},
		{"promoted not removed", []int{1}, []int{3}},
		{"promoted twice", []int{1}, []int{1, 1}},
	}
	for _, c := range cases {
		r := NewRounds(sec, wild, nil)
		if _, err := r.Search(bg); err != nil {
			t.Fatal(err)
		}
		if err := r.Remove(c.removed, c.promoted); err == nil {
			t.Errorf("%s: Remove(%v, %v) succeeded", c.name, c.removed, c.promoted)
		}
		r.Close()
	}
	r := NewRounds(sec, wild, nil)
	defer r.Close()
	if err := r.Remove([]int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove([]int{1}, nil); err == nil {
		t.Error("a second Remove before a Search succeeded")
	}
}

// TestRoundsRepeatSearch requires a Search with no Remove since the last
// one, after a compacted round, to return the same links again.
func TestRoundsRepeatSearch(t *testing.T) {
	c := roundsCases()[0]
	r := NewRounds(c.sec, c.wild, nil)
	defer r.Close()
	links, err := r.Search(bg)
	if err != nil {
		t.Fatal(err)
	}
	removed := make([]int, len(links))
	for k, l := range links {
		removed[k] = l.Wild
	}
	if err := r.Remove(removed, removed[:len(removed)/2]); err != nil {
		t.Fatal(err)
	}
	want, err := r.Search(bg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Search(bg)
	if err != nil {
		t.Fatal(err)
	}
	assertLinksIdentical(t, c.name+"/repeat", 0, want, got)
}
