package linear

import (
	"errors"
	"math/rand"
	"testing"

	"patchdb/internal/ml"
)

// linearly generates a linearly separable problem with margin and optional
// label noise.
func linearly(n int, seed int64, noise float64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		c := rng.NormFloat64() * 0.1
		x[i] = []float64{a, b, c}
		if a+2*b > 0.3 {
			y[i] = 1
		} else if a+2*b < -0.3 {
			y[i] = 0
		} else {
			y[i] = rng.Intn(2) // margin region: random
		}
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

func models(seed int64) map[string]ml.Classifier {
	return map[string]ml.Classifier{
		"logistic":         &Logistic{},
		"sgd":              &SGD{Seed: seed},
		"svm":              &SVM{Seed: seed},
		"smo":              &SMO{Seed: seed},
		"voted-perceptron": &VotedPerceptron{Seed: seed},
	}
}

func TestAllModelsLearnSeparable(t *testing.T) {
	x, y := linearly(500, 1, 0)
	xt, yt := linearly(300, 2, 0)
	for name, m := range models(3) {
		t.Run(name, func(t *testing.T) {
			if err := m.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			if acc := accuracy(m, xt, yt); acc < 0.82 {
				t.Errorf("%s test accuracy = %.2f", name, acc)
			}
		})
	}
}

func TestAllModelsRejectEmpty(t *testing.T) {
	for name, m := range models(4) {
		if err := m.Fit(nil, nil); !errors.Is(err, ml.ErrEmptyDataset) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestAllModelsProbaRange(t *testing.T) {
	x, y := linearly(300, 5, 0.1)
	for name, m := range models(6) {
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		for _, row := range x[:50] {
			p := m.Proba(row)
			if p < 0 || p > 1 {
				t.Fatalf("%s proba %v out of [0,1]", name, p)
			}
		}
	}
}

func TestUnfitProbaZero(t *testing.T) {
	for name, m := range models(7) {
		if p := m.Proba([]float64{1, 2, 3}); p != 0 {
			t.Errorf("%s unfit proba = %v", name, p)
		}
	}
}

func TestLogisticProbaMonotone(t *testing.T) {
	// Points deeper in the positive half-space must get higher probability.
	x, y := linearly(500, 8, 0)
	l := &Logistic{}
	if err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	weak := l.Proba([]float64{0.2, 0.2, 0})
	strong := l.Proba([]float64{3, 3, 0})
	if strong <= weak {
		t.Errorf("proba not monotone along the positive direction: %v <= %v", strong, weak)
	}
}

func TestSVMMarginSign(t *testing.T) {
	x, y := linearly(500, 9, 0)
	s := &SVM{Seed: 10}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if s.Margin([]float64{3, 3, 0}) <= 0 {
		t.Error("deep positive point has non-positive margin")
	}
	if s.Margin([]float64{-3, -3, 0}) >= 0 {
		t.Error("deep negative point has non-negative margin")
	}
}

func TestSMOSubsamples(t *testing.T) {
	// SMO must cap its working set at smoMaxRows and still learn.
	x, y := linearly(3000, 11, 0)
	s := &SMO{Seed: 12}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := linearly(300, 13, 0)
	if acc := accuracy(s, xt, yt); acc < 0.8 {
		t.Errorf("subsampled SMO accuracy = %.2f", acc)
	}
}

func TestStandardizerConstantDim(t *testing.T) {
	s := fitStandardizer([][]float64{{1, 5}, {2, 5}, {3, 5}})
	row := s.apply([]float64{2, 5})
	if row[1] != 0 {
		t.Errorf("constant dim standardized to %v", row[1])
	}
	if row[0] != 0 {
		t.Errorf("mean point standardized to %v, want 0", row[0])
	}
}

func TestVotedPerceptronCapsVectors(t *testing.T) {
	x, y := linearly(2000, 14, 0.3) // noisy: many mistakes, many vectors
	v := &VotedPerceptron{Seed: 15}
	if err := v.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// The fit makes far more than vpMaxVectors mistakes, so the store
	// reaches the cap and merging holds it there.
	if len(v.vectors) != vpMaxVectors {
		t.Errorf("stored vectors = %d, want the cap %d", len(v.vectors), vpMaxVectors)
	}
}
