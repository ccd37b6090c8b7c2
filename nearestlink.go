package patchdb

import (
	"context"
	"math/rand"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/baselines"
	"patchdb/internal/core/nearestlink"
	"patchdb/internal/ml"
)

// Link pairs one verified security patch with its selected wild candidate.
type Link = nearestlink.Link

// NearestLinkOptions tunes the search.
type NearestLinkOptions = nearestlink.Options

// NearestLinkStats is the engine accounting of one search: problem
// dimensions, distance evaluations, pruned fraction, heap pops, second-best
// collision hits, rescans, and wall-clock time.
type NearestLinkStats = nearestlink.Stats

// NearestLinkTotals aggregates NearestLinkStats across searches (e.g. all
// augmentation rounds of a Build).
type NearestLinkTotals = nearestlink.Totals

// NearestLink runs the paper's Algorithm 1: given the feature rows of
// verified security patches and of unlabeled wild patches, it selects one
// distinct wild candidate per security patch, greedily minimizing the total
// weighted Euclidean link distance. Feature weighting (max-abs
// normalization) is applied internally. ctx is checked between scan chunks
// and during assignment; cancellation aborts the search with a wrapped
// context error. Ragged rows, NaN or ±Inf features, and a feature whose
// largest |value| is subnormal (its weight would overflow) return wrapped
// errors.
func NearestLink(ctx context.Context, security, wild [][]float64, opts *NearestLinkOptions) ([]Link, error) {
	return nearestlink.Search(ctx, security, wild, opts)
}

// FeatureWeights computes the per-dimension max-abs weights w_j = 1/max|a_j|
// used to normalize the feature space (Sec. III-B-2). Ragged rows, NaN or
// ±Inf values, and a dimension whose weight overflows (its largest |value|
// is subnormal) return a wrapped error instead of panicking.
func FeatureWeights(sets ...[][]float64) ([]float64, error) {
	return nearestlink.Weights(sets...)
}

// AugmentItem is one unlabeled wild patch in an augmentation pool.
type AugmentItem = augment.Item

// AugmentConfig tunes the human-in-the-loop augmentation driver.
type AugmentConfig = augment.Config

// AugmentRound is one round's accounting (a Table II row), including the
// round's nearest-link engine stats.
type AugmentRound = augment.Round

// AugmentResult is the outcome of an augmentation run.
type AugmentResult = augment.Result

// Verifier is the manual-verification interface consumed by Augment; wire
// it to your labeling process (the paper uses three cross-checking security
// researchers).
type Verifier = augment.Verifier

// Augment runs the dataset augmentation loop of Fig. 2 over one unlabeled
// pool: nearest-link candidate selection, verification, and loop judgment.
// startRound numbers the produced rounds. ctx is checked between rounds,
// inside each round's nearest link search, and between verifications;
// cancellation aborts the run with a wrapped context error.
func Augment(ctx context.Context, seed [][]float64, pool []AugmentItem, v Verifier, startRound int, cfg AugmentConfig) (*AugmentResult, error) {
	return augment.Run(ctx, seed, pool, v, startRound, cfg)
}

// BruteForceSelect is the baseline that samples the pool uniformly
// (Table III, row 1).
func BruteForceSelect(pool []AugmentItem, sampleSize int, rng *rand.Rand) []int {
	return baselines.BruteForce(pool, sampleSize, rng)
}

// PseudoLabelSelect ranks the pool by the confidence of a Random Forest
// trained on the labeled seed and returns the top-k indices (Table III,
// row 2).
func PseudoLabelSelect(trainX [][]float64, trainY []int, pool []AugmentItem, k int, seed int64) ([]int, error) {
	return baselines.PseudoLabeling(&ml.Dataset{X: trainX, Y: trainY}, pool, k, seed)
}

// UncertaintySelect returns the pool indices that all ten ensemble
// classifiers agree are security patches (Table III, row 3).
func UncertaintySelect(trainX [][]float64, trainY []int, pool []AugmentItem, seed int64) ([]int, error) {
	return baselines.Uncertainty(&ml.Dataset{X: trainX, Y: trainY}, pool, seed)
}
