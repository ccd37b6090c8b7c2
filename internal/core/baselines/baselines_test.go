package baselines

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/nearestlink"
	"patchdb/internal/ml"
)

// world builds a labeled training set plus an unlabeled pool where
// positives cluster high in dimension 0.
func world(seed int64) (*ml.Dataset, []augment.Item, map[string]bool) {
	rng := rand.New(rand.NewSource(seed))
	train := &ml.Dataset{}
	for i := 0; i < 200; i++ {
		label := i % 2
		x := []float64{float64(label)*3 + rng.NormFloat64(), rng.NormFloat64()}
		train.Append(x, label, "")
	}
	var pool []augment.Item
	truth := make(map[string]bool)
	for i := 0; i < 400; i++ {
		label := rng.Intn(10) == 0 // 10% positives
		base := 0.0
		if label {
			base = 3
		}
		id := "item" + strconv.Itoa(i)
		pool = append(pool, augment.Item{ID: id, Features: []float64{base + rng.NormFloat64(), rng.NormFloat64()}})
		truth[id] = label
	}
	return train, pool, truth
}

func hitRate(idx []int, pool []augment.Item, truth map[string]bool) float64 {
	if len(idx) == 0 {
		return 0
	}
	hits := 0
	for _, i := range idx {
		if truth[pool[i].ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(idx))
}

func TestBruteForceUniform(t *testing.T) {
	_, pool, truth := world(1)
	rng := rand.New(rand.NewSource(2))
	idx := BruteForce(pool, 200, rng)
	if len(idx) != 200 {
		t.Fatalf("sample = %d", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatal("duplicate sample")
		}
		seen[i] = true
	}
	// Uniform sampling tracks the base rate (10%), give or take noise.
	if r := hitRate(idx, pool, truth); r > 0.25 {
		t.Errorf("brute force hit rate %.2f suspiciously high", r)
	}
	// Oversized request clamps.
	if got := BruteForce(pool, 10000, rng); len(got) != len(pool) {
		t.Errorf("clamp = %d", len(got))
	}
}

func TestPseudoLabelingBeatsBase(t *testing.T) {
	train, pool, truth := world(3)
	idx, err := PseudoLabeling(train, pool, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 40 {
		t.Fatalf("candidates = %d", len(idx))
	}
	if r := hitRate(idx, pool, truth); r < 0.3 {
		t.Errorf("pseudo labeling hit rate %.2f should beat the 10%% base on separable data", r)
	}
}

func TestUncertaintyConsensus(t *testing.T) {
	train, pool, truth := world(5)
	idx, err := Uncertainty(train, pool, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) == 0 {
		t.Fatal("consensus empty on separable data")
	}
	if r := hitRate(idx, pool, truth); r < 0.3 {
		t.Errorf("consensus hit rate %.2f should beat the base rate", r)
	}
}

func TestTenClassifiers(t *testing.T) {
	models := TenClassifiers(7)
	if len(models) != 10 {
		t.Fatalf("ensemble size = %d", len(models))
	}
	train, _, _ := world(8)
	for i, m := range models {
		if err := m.Fit(train.X, train.Y); err != nil {
			t.Errorf("model %d fit: %v", i, err)
		}
	}
}

func TestErrorsPropagate(t *testing.T) {
	empty := &ml.Dataset{}
	if _, err := PseudoLabeling(empty, nil, 5, 1); err == nil {
		t.Error("pseudo labeling on empty training set succeeded")
	}
	if _, err := Uncertainty(empty, nil, 1); err == nil {
		t.Error("uncertainty on empty training set succeeded")
	}
}

// TestRaggedPoolRejected checks that a pool whose feature vectors differ in
// length is refused with ErrDimensionMismatch before any model scores it.
func TestRaggedPoolRejected(t *testing.T) {
	train := &ml.Dataset{
		X: [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {3, 3}},
		Y: []int{ml.NonSecurity, ml.NonSecurity, ml.NonSecurity, ml.Security, ml.Security, ml.Security},
	}
	pool := []augment.Item{{ID: "a", Features: []float64{0, 1}}, {ID: "b", Features: []float64{1}}}
	if _, err := PseudoLabeling(train, pool, 1, 1); !errors.Is(err, nearestlink.ErrDimensionMismatch) {
		t.Errorf("pseudo labeling: err = %v, want ErrDimensionMismatch", err)
	}
	if _, err := Uncertainty(train, pool, 1); !errors.Is(err, nearestlink.ErrDimensionMismatch) {
		t.Errorf("uncertainty: err = %v, want ErrDimensionMismatch", err)
	}
}
