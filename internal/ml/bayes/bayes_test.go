package bayes

import (
	"errors"
	"math/rand"
	"testing"

	"patchdb/internal/ml"
)

func blobs(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		label := i % 2
		shift := float64(label) * 2.5
		x[i] = []float64{shift + rng.NormFloat64(), -shift + rng.NormFloat64(), rng.NormFloat64()}
		y[i] = label
	}
	return x, y
}

func accuracy(c ml.Classifier, x [][]float64, y []int) float64 {
	hits := 0
	for i := range x {
		if c.Predict(x[i]) == y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(x))
}

func TestGaussianNBSeparable(t *testing.T) {
	x, y := blobs(600, 1)
	g := &GaussianNB{}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := blobs(300, 2)
	if acc := accuracy(g, xt, yt); acc < 0.9 {
		t.Errorf("GaussianNB accuracy = %.2f", acc)
	}
}

func TestGaussianNBProba(t *testing.T) {
	x, y := blobs(400, 3)
	g := &GaussianNB{}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	deepPos := g.Proba([]float64{4, -4, 0})
	deepNeg := g.Proba([]float64{-1.5, 1.5, 0})
	if deepPos < 0.9 {
		t.Errorf("deep positive proba = %v", deepPos)
	}
	if deepNeg > 0.1 {
		t.Errorf("deep negative proba = %v", deepNeg)
	}
	if g2 := (&GaussianNB{}); g2.Proba([]float64{0}) != 0 {
		t.Error("unfit proba != 0")
	}
}

func TestGaussianNBSingleClass(t *testing.T) {
	// All-positive training: must not NaN/panic and must lean positive.
	x := [][]float64{{1, 2}, {1.5, 2.5}, {0.8, 1.9}}
	y := []int{1, 1, 1}
	g := &GaussianNB{}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if p := g.Proba([]float64{1, 2}); p < 0.5 || p != p {
		t.Errorf("single-class proba = %v", p)
	}
}

func TestTANSeparable(t *testing.T) {
	x, y := blobs(600, 6)
	tan := &TAN{}
	if err := tan.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := blobs(300, 7)
	if acc := accuracy(tan, xt, yt); acc < 0.85 {
		t.Errorf("TAN accuracy = %.2f", acc)
	}
}

func TestTANStructureIsTree(t *testing.T) {
	x, y := blobs(300, 8)
	tan := &TAN{}
	if err := tan.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Feature 0 is the root (-1); every other feature has exactly one parent
	// and the parent graph is acyclic.
	if tan.parent[0] != -1 {
		t.Errorf("root parent = %d", tan.parent[0])
	}
	for j := 1; j < len(tan.parent); j++ {
		p := tan.parent[j]
		if p < 0 || p >= len(tan.parent) {
			t.Fatalf("feature %d parent %d out of range", j, p)
		}
		// Walk to the root; must terminate.
		seen := map[int]bool{j: true}
		for cur := p; cur != -1; cur = tan.parent[cur] {
			if seen[cur] {
				t.Fatalf("cycle through feature %d", cur)
			}
			seen[cur] = true
		}
	}
}

func TestAllRejectEmpty(t *testing.T) {
	for name, c := range map[string]ml.Classifier{
		"gaussian": &GaussianNB{}, "tan": &TAN{},
	} {
		if err := c.Fit(nil, nil); !errors.Is(err, ml.ErrEmptyDataset) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestDiscretizerBins(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	d := fitDiscretizer(x)
	if got := d.bins(0); got != tanBins {
		t.Fatalf("bins = %d", got)
	}
	if d.bin(0, 0) != 0 {
		t.Error("below-min value not in bin 0")
	}
	if d.bin(0, 100) != 3 {
		t.Error("above-max value not in last bin")
	}
	if d.bin(0, 1) >= d.bin(0, 8) {
		t.Error("bin order broken")
	}
}
