package tree

import (
	"errors"
	"math/rand"
	"testing"

	"patchdb/internal/ml"
)

// blob generates two separable Gaussian-ish blobs with some overlap noise.
func blob(n int, seed int64, noise float64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		label := i % 2
		cx := float64(label) * 3
		x[i] = []float64{cx + rng.NormFloat64(), cx/2 + rng.NormFloat64(), rng.NormFloat64()}
		y[i] = label
		if rng.Float64() < noise {
			y[i] = 1 - y[i]
		}
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

func TestTreeSeparable(t *testing.T) {
	x, y := blob(400, 1, 0)
	tr := &Tree{MaxDepth: 6}
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tr, x, y); acc < 0.9 {
		t.Errorf("train accuracy = %.2f", acc)
	}
	if tr.root.leaf {
		t.Error("tree did not split")
	}
}

func TestTreeXor(t *testing.T) {
	// XOR needs depth >= 2; a depth-1 stump must fail, a deeper tree succeed.
	var x [][]float64
	var y []int
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		a := float64(rng.Intn(2))
		b := float64(rng.Intn(2))
		x = append(x, []float64{a + rng.Float64()*0.1, b + rng.Float64()*0.1})
		y = append(y, int(a)^int(b))
	}
	deep := &Tree{MaxDepth: 4}
	if err := deep.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(deep, x, y); acc < 0.95 {
		t.Errorf("deep tree accuracy on XOR = %.2f", acc)
	}
	stump := &Tree{MaxDepth: 1}
	if err := stump.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(stump, x, y); acc > 0.8 {
		t.Errorf("depth-1 stump solved XOR (%.2f): depth limit ignored", acc)
	}
}

func TestTreeEmpty(t *testing.T) {
	tr := &Tree{}
	if err := tr.Fit(nil, nil); !errors.Is(err, ml.ErrEmptyDataset) {
		t.Errorf("err = %v", err)
	}
	if tr.Proba([]float64{1}) != 0 {
		t.Error("unfit tree proba != 0")
	}
}

func TestTreePureLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tr := &Tree{}
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if tr.Proba([]float64{9}) != 1 {
		t.Errorf("pure positive proba = %v", tr.Proba([]float64{9}))
	}
	if !tr.root.leaf {
		t.Error("pure data must yield a single leaf")
	}
}

func TestForestBetterThanStump(t *testing.T) {
	x, y := blob(600, 3, 0.1)
	xt, yt := blob(300, 4, 0)
	f := &Forest{Trees: 30, Seed: 5}
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(f, xt, yt); acc < 0.85 {
		t.Errorf("forest test accuracy = %.2f", acc)
	}
}

func TestForestDeterminism(t *testing.T) {
	x, y := blob(200, 6, 0.05)
	f1 := &Forest{Trees: 10, Seed: 7}
	f2 := &Forest{Trees: 10, Seed: 7}
	if err := f1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		probe := []float64{float64(i) / 10, 0, 0}
		if f1.Proba(probe) != f2.Proba(probe) {
			t.Fatalf("same seed, different proba at %v", probe)
		}
	}
}

func TestForestEmpty(t *testing.T) {
	f := &Forest{}
	if err := f.Fit(nil, nil); !errors.Is(err, ml.ErrEmptyDataset) {
		t.Errorf("err = %v", err)
	}
	if f.Proba([]float64{1}) != 0 {
		t.Error("unfit forest proba != 0")
	}
}

func TestForestProbaRange(t *testing.T) {
	x, y := blob(200, 8, 0.2)
	f := &Forest{Trees: 15, Seed: 9}
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, row := range x {
		p := f.Proba(row)
		if p < 0 || p > 1 {
			t.Fatalf("proba %v out of range", p)
		}
	}
}

func TestREPTreePrunes(t *testing.T) {
	// Noisy labels: pruning should not hurt and the model must still learn
	// the dominant signal.
	x, y := blob(500, 10, 0.25)
	r := &REPTree{Seed: 11}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := blob(300, 12, 0)
	if acc := accuracy(r, xt, yt); acc < 0.8 {
		t.Errorf("REPTree test accuracy = %.2f", acc)
	}
}

func TestREPTreeEmpty(t *testing.T) {
	r := &REPTree{}
	if err := r.Fit(nil, nil); !errors.Is(err, ml.ErrEmptyDataset) {
		t.Errorf("err = %v", err)
	}
	if r.Proba([]float64{0}) != 0 {
		t.Error("unfit REPTree proba != 0")
	}
}

func TestInterfaceCompliance(t *testing.T) {
	var _ ml.Classifier = (*Tree)(nil)
	var _ ml.Classifier = (*Forest)(nil)
	var _ ml.Classifier = (*REPTree)(nil)
}
