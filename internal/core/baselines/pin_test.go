package baselines

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"patchdb/internal/ml"
	"patchdb/internal/ml/tree"
)

// pinData is a seeded 60-dimensional problem in the shape of the feature
// vectors: every third column is a small count, the rest are Gaussian at
// growing scales, and the label is a noisy linear rule, noisy enough that
// the voted perceptron reaches its vector cap. held are 200 more rows.
func pinData() (x [][]float64, y []int, held [][]float64) {
	rng := rand.New(rand.NewSource(2021))
	row := func() []float64 {
		r := make([]float64, 60)
		for j := range r {
			if j%3 == 0 {
				r[j] = float64(rng.Intn(6))
			} else {
				r[j] = rng.NormFloat64() * float64(1+j%5)
			}
		}
		return r
	}
	for i := 0; i < 200; i++ {
		r := row()
		x = append(x, r)
		label := 0
		if r[0]-r[1]/2+r[2]/3+r[7]+rng.NormFloat64()*2 > 2.5 {
			label = 1
		}
		y = append(y, label)
	}
	for i := 0; i < 200; i++ {
		held = append(held, row())
	}
	return x, y, held
}

// pinModels is TenClassifiers(seed 5) followed by the two other forest sizes
// the experiments train.
func pinModels() []ml.Classifier {
	return append(TenClassifiers(5), &tree.Forest{Trees: 40, Seed: 5}, &tree.Forest{Trees: 60, Seed: 5})
}

// TestTenClassifiersPinned fits every model of the Table III ensemble, and
// the 40- and 60-tree forests, on pinData and hashes the bits of each
// model's Proba on the held-out rows. The digests were recorded when every
// training setting was still a field; a changed setting, or an expression
// Go now folds at compile time, changes a digest.
func TestTenClassifiersPinned(t *testing.T) {
	want := []uint64{
		0x3c31ee0061145c0d, // Random Forest, 30 trees
		0x493c79613169674c, // SVM
		0xf789b087931f2641, // Logistic
		0x07978b5f29776378, // SGD
		0xec8608ca0cc1ee8f, // SMO
		0xbc11d948b647d442, // Gaussian naive Bayes
		0x8f490a9ce6d0fde4, // TAN
		0xdb83f0c779ab1fe5, // J48-style tree
		0xe33ae4888965e198, // REPTree
		0x66814874c7ff5516, // Voted Perceptron
		0x32bd254abdb00b41, // Random Forest, 40 trees
		0x7f66dfaf2cab9439, // Random Forest, 60 trees
	}
	x, y, held := pinData()
	models := pinModels()
	if len(models) != len(want) {
		t.Fatalf("%d models, %d digests", len(models), len(want))
	}
	for i, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("model %d (%T): %v", i, m, err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, r := range held {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Proba(r)))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != want[i] {
			t.Errorf("model %d (%T): Proba digest %#016x, want %#016x", i, m, got, want[i])
		}
	}
}
