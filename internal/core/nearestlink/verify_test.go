package nearestlink

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestVerifySampledAcceptsEngineOutput checks the spot-checker against real
// Search and ReferenceSearch output across the tie-heavy generators: every
// sampled link must pass, at any sample size.
func TestVerifySampledAcceptsEngineOutput(t *testing.T) {
	gens := map[string]func(*rand.Rand, int, int) [][]float64{
		"gaussian":   genGaussian,
		"grid":       genGrid,
		"duplicates": genDuplicates,
	}
	for name, gen := range gens {
		rng := rand.New(rand.NewSource(7))
		sec := gen(rng, 60, 8)
		wild := gen(rng, 400, 8)

		links, err := Search(context.Background(), sec, wild, nil)
		if err != nil {
			t.Fatalf("%s: search: %v", name, err)
		}
		for _, sample := range []int{1, 16, len(links), len(links) + 100} {
			checked, err := VerifySampled(sec, wild, links, nil, sample, 42)
			if err != nil {
				t.Errorf("%s: sample %d: %v", name, sample, err)
			}
			want := sample
			if want > len(links) {
				want = len(links)
			}
			if checked != want {
				t.Errorf("%s: sample %d: checked %d links, want %d", name, sample, checked, want)
			}
		}

		ref, err := ReferenceSearch(sec, wild, nil)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if _, err := VerifySampled(sec, wild, ref, nil, len(ref), 42); err != nil {
			t.Errorf("%s: reference output rejected: %v", name, err)
		}
	}
}

// TestVerifySampledNLessThanM covers the truncated-assignment regime where
// wild columns run out before security rows do.
func TestVerifySampledNLessThanM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sec := randRows(rng, 50, 6)
	wild := randRows(rng, 20, 6)
	links, err := Search(context.Background(), sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 20 {
		t.Fatalf("links = %d, want 20", len(links))
	}
	if _, err := VerifySampled(sec, wild, links, nil, len(links), 1); err != nil {
		t.Error(err)
	}
}

// TestVerifySampledDetectsTampering corrupts verified output in each way the
// spot-check is supposed to catch.
func TestVerifySampledDetectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sec := randRows(rng, 40, 6)
	wild := randRows(rng, 300, 6)
	links, err := Search(context.Background(), sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}

	tamper := func(mutate func([]Link)) []Link {
		out := append([]Link(nil), links...)
		mutate(out)
		return out
	}
	cases := map[string][]Link{
		"wrong column": tamper(func(l []Link) {
			// Swap two assigned columns: both rows keep valid, distinct
			// columns, but neither is that row's argmin any more.
			l[5].Wild, l[20].Wild = l[20].Wild, l[5].Wild
		}),
		"wrong distance": tamper(func(l []Link) {
			l[30].Distance *= 1.000001
		}),
		"column reuse": tamper(func(l []Link) {
			l[7].Wild = l[3].Wild
		}),
		"row out of range": tamper(func(l []Link) {
			l[0].Security = len(sec)
		}),
		"order violation": tamper(func(l []Link) {
			l[0], l[len(l)-1] = l[len(l)-1], l[0]
		}),
	}
	for name, bad := range cases {
		if _, err := VerifySampled(sec, wild, bad, nil, len(bad), 9); err == nil {
			t.Errorf("%s: tampered links passed verification", name)
		}
	}
}

// TestVerifySampledEmpty covers the degenerate inputs.
func TestVerifySampledEmpty(t *testing.T) {
	if n, err := VerifySampled(nil, nil, nil, nil, 10, 1); n != 0 || err != nil {
		t.Errorf("empty links: %d, %v", n, err)
	}
	rng := rand.New(rand.NewSource(1))
	sec := randRows(rng, 4, 3)
	wild := randRows(rng, 4, 3)
	links, err := Search(context.Background(), sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := VerifySampled(sec, wild, links, nil, 0, 1); n != 0 || err != nil {
		t.Errorf("sample 0: %d, %v", n, err)
	}
	// Dimension mismatch is reported, not panicked on.
	if _, err := VerifySampled(sec, [][]float64{{1, 2}}, links, nil, 1, 1); err == nil ||
		!strings.Contains(err.Error(), "dimension") {
		t.Errorf("dimension mismatch: %v", err)
	}
}

// TestVerifySampledReportsLowestFailingLink corrupts two links that sit at
// the seam of two work ranges and checks that the error names the lower one,
// with the same message, at every worker count.
func TestVerifySampledReportsLowestFailingLink(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sec := randRows(rng, 40, 6)
	wild := randRows(rng, 300, 6)
	links, err := Search(context.Background(), sec, wild, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]Link(nil), links...)
	for _, k := range []int{19, 20} {
		if bad[k].Distance >= bad[k+1].Distance {
			t.Fatalf("links %d and %d tie; the nudge would break emission order", k, k+1)
		}
		bad[k].Distance = math.Nextafter(bad[k].Distance, math.Inf(1))
	}
	var want string
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			_, err := VerifySampled(sec, wild, bad, &Options{Workers: workers}, len(bad), 9)
			if err == nil {
				t.Fatalf("workers=%d: tampered links passed verification", workers)
			}
			if want == "" {
				want = err.Error()
				if !strings.HasPrefix(want, "link 19: ") {
					t.Fatalf("error %q does not name link 19", want)
				}
			}
			if err.Error() != want {
				t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
			}
		}
	}
}
