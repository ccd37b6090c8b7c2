package main

import (
	"fmt"
	"math/rand"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/baselines"
	"patchdb/internal/core/oversample"
	"patchdb/internal/corpus"
	"patchdb/internal/features"
	"patchdb/internal/ml"
	"patchdb/internal/ml/bayes"
	"patchdb/internal/ml/linear"
	"patchdb/internal/ml/neural"
	"patchdb/internal/ml/tree"
)

// trainSeed fixes the labeled training set and the ensemble's model seeds.
// SMO's convergence cost varies between training sets of one size with a
// coefficient of variation of ~0.5 (measured on twelve 120-row sets), which
// would swamp any optimisation in the run-to-run spread; --seed still draws
// the scored pool, the oversampler's choices and the RNN's initialisation.
const trainSeed = 1

// trainShape sizes the train workload: one Table III + IV evaluation cell.
type trainShape struct {
	NVD, NonSec int // labeled training commits
	Pool        int // unlabeled wild commits the models score
	Synthetic   int // oversampled variants per training commit (cap)
	Epochs      int // RNN epochs
}

// trainBench runs the learned baselines of Table III (pseudo labeling and
// the ten-classifier uncertainty ensemble) and the Table IV RNN on
// oversampled data: model training does nearly all of the op's work.
type trainBench struct {
	seed     int64 // the run's seed
	sh       trainShape
	train    *ml.Dataset
	commits  []*corpus.LabeledCommit // training commits, labeled as in train
	seqs     [][]string              // training token sequences
	pool     []augment.Item
	poolRows [][]float64
	poolSeqs [][]string
	items    int // feature rows extracted in set-up

	// The last op's outputs.
	topK, consensus, preds []int
	variants               int
}

func newTrainBench(cfg config) *trainBench {
	sh := trainShape{NVD: 40, NonSec: 80, Pool: 4000, Synthetic: 2, Epochs: 3}
	if cfg.smoke {
		sh = trainShape{NVD: 16, NonSec: 32, Pool: 200, Synthetic: 2, Epochs: 1}
	}
	return &trainBench{seed: cfg.seed, sh: sh}
}

func (b *trainBench) shape() map[string]any {
	return map[string]any{"train_seed": trainSeed, "nvd": b.sh.NVD, "non_security": b.sh.NonSec, "pool": b.sh.Pool,
		"synthetic_per_patch": b.sh.Synthetic, "rnn_epochs": b.sh.Epochs}
}

func (b *trainBench) prepare(tr *tracer) {
	labeled := corpus.NewGenerator(corpus.Config{Seed: trainSeed})
	nvd := labeled.GenerateNVD(b.sh.NVD)
	non := labeled.GenerateNonSecurity(b.sh.NonSec)
	wild := corpus.NewGenerator(corpus.Config{Seed: b.seed}).GenerateWild(b.sh.Pool)
	b.commits = append(append([]*corpus.LabeledCommit(nil), nvd...), non...)

	trainPatches, wildPatches := patchesOf(b.commits), patchesOf(wild)
	trainX := extractFeatures(tr, 0, trainPatches)
	b.poolRows = extractFeatures(tr, 0, wildPatches)
	b.items = len(trainX) + len(b.poolRows)
	id := tr.begin("features", 0)
	b.seqs = make([][]string, len(trainPatches))
	parallel(len(trainPatches), func(i int) { b.seqs[i] = features.TokenSequence(trainPatches[i]) })
	b.poolSeqs = make([][]string, len(wildPatches))
	parallel(len(wildPatches), func(i int) { b.poolSeqs[i] = features.TokenSequence(wildPatches[i]) })
	tr.end(id)

	b.train = &ml.Dataset{}
	for i, lc := range b.commits {
		b.train.Append(trainX[i], label(lc), lc.Commit.Hash)
	}
	b.pool = make([]augment.Item, len(wild))
	for i, lc := range wild {
		b.pool[i] = augment.Item{ID: lc.Commit.Hash, Features: b.poolRows[i]}
	}
}

func label(lc *corpus.LabeledCommit) int {
	if lc.Security {
		return ml.Security
	}
	return ml.NonSecurity
}

func (b *trainBench) op(tr *tracer, root int) (map[string]float64, error) {
	var err error
	if tr == nil {
		if b.topK, err = baselines.PseudoLabeling(b.train, b.pool, b.sh.NVD, trainSeed); err != nil {
			return nil, err
		}
		if b.consensus, err = baselines.Uncertainty(b.train, b.pool, trainSeed); err != nil {
			return nil, err
		}
	} else if err = b.tracedBaselines(tr, root); err != nil {
		return nil, err
	}

	// Table IV: oversample the training commits, then train the RNN on
	// natural plus synthetic sequences and score the pool.
	seqs := append([][]string(nil), b.seqs...)
	var y []int
	for _, lc := range b.commits {
		y = append(y, label(lc))
	}
	err = tr.call("oversample", root, func(int) error {
		ov := &oversample.Oversampler{MaxPerPatch: b.sh.Synthetic, Rand: rand.New(rand.NewSource(b.seed + 777))}
		for _, lc := range b.commits {
			syns, err := ov.Synthesize(lc.Commit.Hash, lc.Commit.Before, lc.Commit.After)
			if err != nil {
				return fmt.Errorf("synthesize %s: %w", lc.Commit.Hash, err)
			}
			for _, s := range syns {
				seqs = append(seqs, features.TokenSequence(s.Patch))
				y = append(y, label(lc))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.variants = len(seqs) - len(b.seqs)

	rnn := &neural.RNN{Epochs: b.sh.Epochs, Seed: b.seed}
	if err := tr.call("neural.fit", root, func(int) error { return rnn.FitTokens(seqs, y) }); err != nil {
		return nil, fmt.Errorf("rnn fit: %w", err)
	}
	b.preds = make([]int, len(b.poolSeqs))
	_ = tr.call("neural.predict", root, func(int) error {
		for i, s := range b.poolSeqs {
			b.preds[i] = rnn.PredictTokens(s)
		}
		return nil
	})
	return map[string]float64{
		"baselines.consensus": float64(len(b.consensus)),
		"oversample.variants": float64(b.variants),
		"oversample.yield":    float64(b.variants) / float64(len(b.commits)),
		"neural.steps":        float64(b.sh.Epochs * len(seqs)),
	}, nil
}

// tracedBaselines computes what PseudoLabeling and Uncertainty compute, one
// model fit per span, so the ensemble's time is attributed per model
// family. The digest check holds it to the untraced calls' outputs.
func (b *trainBench) tracedBaselines(tr *tracer, root int) error {
	rf := &tree.Forest{Trees: 40, Seed: trainSeed}
	if err := tr.call("tree", root, func(int) error { return rf.Fit(b.train.X, b.train.Y) }); err != nil {
		return fmt.Errorf("pseudo labeling: %w", err)
	}
	_ = tr.call("baselines.predict", root, func(int) error {
		b.topK = ml.ArgmaxProba(rf, b.poolRows, b.sh.NVD)
		return nil
	})
	models := baselines.TenClassifiers(trainSeed)
	for i, m := range models {
		if err := tr.call(family(m), root, func(int) error { return m.Fit(b.train.X, b.train.Y) }); err != nil {
			return fmt.Errorf("uncertainty model %d: %w", i, err)
		}
	}
	return tr.call("baselines.predict", root, func(int) error {
		b.consensus = b.consensus[:0]
	rows:
		for i, row := range b.poolRows {
			for _, m := range models {
				if m.Predict(row) != ml.Security {
					continue rows
				}
			}
			b.consensus = append(b.consensus, i)
		}
		return nil
	})
}

// family names the span of a model's fit.
func family(m ml.Classifier) string {
	switch m.(type) {
	case *linear.SMO:
		return "linear.smo"
	case *linear.SVM, *linear.Logistic, *linear.SGD, *linear.VotedPerceptron:
		return "linear"
	case *tree.Forest, *tree.Tree, *tree.REPTree:
		return "tree"
	case *bayes.GaussianNB, *bayes.TAN:
		return "bayes"
	}
	return "baselines.fit"
}

// digest covers the pseudo-label top-k, the consensus set, the variant count
// and every RNN prediction.
func (b *trainBench) digest() (string, error) {
	return newDigest(b.topK, b.consensus, b.variants, b.preds), nil
}

// checkRun checks the outputs' shapes: a full top-k of distinct pool
// indices, an in-range consensus set, and synthetic variants produced.
func (b *trainBench) checkRun() error {
	if len(b.topK) != b.sh.NVD {
		return fmt.Errorf("pseudo labeling returned %d candidates, want %d", len(b.topK), b.sh.NVD)
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int(nil), b.topK...), b.consensus...) {
		if i < 0 || i >= len(b.pool) {
			return fmt.Errorf("pool index %d out of range", i)
		}
	}
	for _, i := range b.topK {
		if seen[i] {
			return fmt.Errorf("pseudo labeling returned pool index %d twice", i)
		}
		seen[i] = true
	}
	if b.variants == 0 {
		return fmt.Errorf("oversampling produced no variants")
	}
	return nil
}

func (b *trainBench) layers(ops, setup perUnit, counts map[string]float64) map[string]float64 {
	m := map[string]float64{
		"features.busy_s":     setup.secs("features"),
		"features.items":      float64(b.items),
		"oversample.busy_s":   ops.secs("oversample"),
		"linear.smo_fit_s":    ops.secs("linear.smo"),
		"linear.fit_s":        ops.secs("linear"),
		"tree.fit_s":          ops.secs("tree"),
		"bayes.fit_s":         ops.secs("bayes"),
		"baselines.predict_s": ops.secs("baselines.predict"),
		"neural.fit_s":        ops.secs("neural.fit"),
		"neural.predict_s":    ops.secs("neural.predict"),
		"neural.alloc_mb":     ops.mb("neural.fit") + ops.mb("neural.predict"),
	}
	copyCounts(counts, m)
	if steps := m["neural.steps"]; steps > 0 {
		m["neural.us_per_step"] = 1e6 * m["neural.fit_s"] / steps
	}
	return m
}
