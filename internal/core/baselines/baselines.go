// Package baselines implements the three dataset-augmentation baselines the
// paper compares nearest link search against in Table III: brute force
// search, pseudo labeling (top-confidence candidates of a single model), and
// uncertainty-based labeling (consensus of ten classifiers).
package baselines

import (
	"fmt"
	"math/rand"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/nearestlink"
	"patchdb/internal/ml"
	"patchdb/internal/ml/bayes"
	"patchdb/internal/ml/linear"
	"patchdb/internal/ml/tree"
	"patchdb/internal/par"
)

// poolRows returns the pool's feature vectors, checking that they all
// share the first one's dimensionality: a ragged pool returns a wrapped
// nearestlink.ErrDimensionMismatch instead of a classifier's out-of-range
// panic.
func poolRows(pool []augment.Item) ([][]float64, error) {
	rows := make([][]float64, len(pool))
	for i, it := range pool {
		if len(it.Features) != len(pool[0].Features) {
			return nil, fmt.Errorf("pool features: %w: row %d has %d features, want %d",
				nearestlink.ErrDimensionMismatch, i, len(it.Features), len(pool[0].Features))
		}
		rows[i] = it.Features
	}
	return rows, nil
}

// BruteForce samples sampleSize items uniformly from the pool and verifies
// each — the "screen everything" strategy. It returns the indices of the
// sampled candidates.
func BruteForce(pool []augment.Item, sampleSize int, rng *rand.Rand) []int {
	idx := rng.Perm(len(pool))
	if sampleSize > len(idx) {
		sampleSize = len(idx)
	}
	return idx[:sampleSize]
}

// PseudoLabeling trains a Random Forest on the labeled seed (the paper found
// it the best-performing single model) and returns the k pool indices with
// the highest predicted security-patch confidence.
func PseudoLabeling(train *ml.Dataset, pool []augment.Item, k int, seed int64) ([]int, error) {
	rf := &tree.Forest{Trees: 40, Seed: seed}
	if err := rf.Fit(train.X, train.Y); err != nil {
		return nil, fmt.Errorf("pseudo labeling: %w", err)
	}
	rows, err := poolRows(pool)
	if err != nil {
		return nil, fmt.Errorf("pseudo labeling: %w", err)
	}
	return ml.ArgmaxProba(rf, rows, k), nil
}

// TenClassifiers builds the ten-model ensemble of the paper's
// uncertainty-based labeling baseline: Random Forest, SVM, Logistic
// Regression, SGD, SMO, Naive Bayes, Bayesian Network, J48-style decision
// tree, REPTree, and Voted Perceptron.
func TenClassifiers(seed int64) []ml.Classifier {
	return []ml.Classifier{
		&tree.Forest{Trees: 30, Seed: seed},
		&linear.SVM{Seed: seed},
		&linear.Logistic{},
		&linear.SGD{Seed: seed},
		&linear.SMO{Seed: seed},
		&bayes.GaussianNB{},
		&bayes.TAN{},
		&tree.Tree{MaxDepth: 12, MinLeaf: 2}, // J48-style single tree
		&tree.REPTree{Seed: seed},
		&linear.VotedPerceptron{Seed: seed},
	}
}

// Uncertainty trains the ensemble on the labeled seed and returns the pool
// indices every classifier predicts as security patches (the
// highest-certainty consensus set). The ten fits run on GOMAXPROCS
// workers, each into its own slot, and so does the scoring of the pool;
// the errors and the hits are then read in model and row order.
func Uncertainty(train *ml.Dataset, pool []augment.Item, seed int64) ([]int, error) {
	models := TenClassifiers(seed)
	errs := make([]error, len(models))
	// A nil ctx is never done, so neither loop can fail.
	_ = par.For(nil, len(models), 0, func(_, i int) { errs[i] = models[i].Fit(train.X, train.Y) })
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("uncertainty model %d: %w", i, err)
		}
	}
	rows, err := poolRows(pool)
	if err != nil {
		return nil, fmt.Errorf("uncertainty: %w", err)
	}
	hit := make([]bool, len(rows))
	_ = par.For(nil, len(rows), 0, func(_, i int) {
		hit[i] = true
		for _, m := range models {
			if m.Predict(rows[i]) != ml.Security {
				hit[i] = false
				return
			}
		}
	})
	var out []int
	for i, h := range hit {
		if h {
			out = append(out, i)
		}
	}
	return out, nil
}
