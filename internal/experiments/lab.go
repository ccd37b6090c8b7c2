// Package experiments reproduces every data-bearing table and figure of the
// PatchDB paper: the five augmentation rounds (Table II), the augmentation
// method comparison (Table III), the synthetic-patch study (Table IV), the
// dataset composition (Table V, Fig. 6), and the dataset quality study
// (Table VI). A Lab holds the shared corpus, oracle, and feature cache; each
// driver renders rows shaped like the paper's.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"patchdb/internal/core/augment"
	"patchdb/internal/corpus"
	"patchdb/internal/features"
	"patchdb/internal/oracle"
	"patchdb/internal/par"
)

// Scale fixes the experiment sizes. The paper's scale (4076 seed, 100K/200K
// pools) is reachable but slow; the default is ~1/10 scale, which preserves
// every reported ratio (they are scale-stable percentages).
type Scale struct {
	Name string
	// NVDSeed is the number of NVD-indexed security patches (paper: 4076).
	NVDSeed int
	// NonSecSeed is the cleaned non-security training set size (paper: 8352).
	NonSecSeed int
	// SetI/SetII/SetIII are the unlabeled wild pool sizes
	// (paper: 100K/200K/200K).
	SetI, SetII, SetIII int
	// VerifySample is the sampled manual-verification budget of Table III
	// (paper: 1K).
	VerifySample int
	// Seed drives all randomness.
	Seed int64
	// RNNEpochs for the sequence classifier (default 3).
	RNNEpochs int
	// TableIVSplits is how many independent splits Table IV averages
	// (default 3; 1 keeps tests fast).
	TableIVSplits int
}

// DefaultScale is roughly 1/10 of the paper.
var DefaultScale = Scale{
	Name:          "default(1/10 paper)",
	NVDSeed:       400,
	NonSecSeed:    800,
	SetI:          8000,
	SetII:         16000,
	SetIII:        16000,
	VerifySample:  400,
	Seed:          1,
	RNNEpochs:     3,
	TableIVSplits: 3,
}

// SmallScale keeps unit tests and benchmarks fast.
var SmallScale = Scale{
	Name:          "small(tests)",
	NVDSeed:       120,
	NonSecSeed:    240,
	SetI:          1200,
	SetII:         2400,
	SetIII:        2400,
	VerifySample:  150,
	Seed:          1,
	RNNEpochs:     2,
	TableIVSplits: 1,
}

// PaperScale matches the paper's dataset sizes (minutes of runtime).
var PaperScale = Scale{
	Name:          "paper",
	NVDSeed:       4076,
	NonSecSeed:    8352,
	SetI:          100000,
	SetII:         200000,
	SetIII:        200000,
	VerifySample:  1000,
	Seed:          1,
	RNNEpochs:     3,
	TableIVSplits: 3,
}

// Lab is the shared experimental context: generated corpus populations, the
// verification oracle, and a feature cache.
type Lab struct {
	Scale  Scale
	Gen    *corpus.Generator
	Oracle *oracle.Oracle

	// NVD is the seed security patch set (with CVE ids).
	NVD []*corpus.LabeledCommit
	// NonSec is the cleaned non-security set.
	NonSec []*corpus.LabeledCommit
	// SetI, SetII, SetIII are the unlabeled wild pools.
	SetI, SetII, SetIII []*corpus.LabeledCommit

	byHash map[string]*corpus.LabeledCommit

	mu    sync.Mutex
	feats map[string][]float64

	augOnce sync.Once
	augRows []SetRound
	augErr  error
	wildSec []*corpus.LabeledCommit // nearest-link-discovered security patches
	wildNon []*corpus.LabeledCommit // cleaned candidates
}

// NewLab generates all populations and labels for a scale.
func NewLab(s Scale) *Lab {
	if s.RNNEpochs <= 0 {
		s.RNNEpochs = 3
	}
	if s.TableIVSplits <= 0 {
		s.TableIVSplits = 3
	}
	gen := corpus.NewGenerator(corpus.Config{Seed: s.Seed})
	lab := &Lab{
		Scale:  s,
		Gen:    gen,
		NVD:    gen.GenerateNVD(s.NVDSeed),
		NonSec: gen.GenerateNonSecurity(s.NonSecSeed),
		SetI:   gen.GenerateWild(s.SetI),
		SetII:  gen.GenerateWild(s.SetII),
		SetIII: gen.GenerateWild(s.SetIII),
		byHash: make(map[string]*corpus.LabeledCommit),
		feats:  make(map[string][]float64),
	}
	labels := make(map[string]bool)
	for _, pool := range lab.pools() {
		for _, lc := range pool {
			labels[lc.Commit.Hash] = lc.Security
			lab.byHash[lc.Commit.Hash] = lc
		}
	}
	lab.Oracle = oracle.New(labels, oracle.WithSeed(s.Seed))
	return lab
}

func (l *Lab) pools() [][]*corpus.LabeledCommit {
	return [][]*corpus.LabeledCommit{l.NVD, l.NonSec, l.SetI, l.SetII, l.SetIII}
}

// Lookup resolves a commit hash to its labeled commit.
func (l *Lab) Lookup(hash string) (*corpus.LabeledCommit, bool) {
	lc, ok := l.byHash[hash]
	return lc, ok
}

// Features returns (and caches) the 60-dim vector of a commit's patch.
func (l *Lab) Features(lc *corpus.LabeledCommit) []float64 {
	l.mu.Lock()
	if v, ok := l.feats[lc.Commit.Hash]; ok {
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	v := features.Extract(lc.Commit.Patch(), 0)
	l.mu.Lock()
	l.feats[lc.Commit.Hash] = v
	l.mu.Unlock()
	return v
}

// Precompute extracts features for whole pools in parallel.
func (l *Lab) Precompute(pools ...[]*corpus.LabeledCommit) {
	var all []*corpus.LabeledCommit
	for _, pool := range pools {
		all = append(all, pool...)
	}
	_ = par.For(nil, len(all), 0, func(_, i int) { l.Features(all[i]) })
}

// Items converts a pool to augmentation items (features extracted lazily
// but usually precomputed).
func (l *Lab) Items(pool []*corpus.LabeledCommit) []augment.Item {
	l.Precompute(pool)
	items := make([]augment.Item, len(pool))
	for i, lc := range pool {
		items[i] = augment.Item{ID: lc.Commit.Hash, Features: l.Features(lc)}
	}
	return items
}

// FeatureRows extracts the feature matrix of a pool.
func (l *Lab) FeatureRows(pool []*corpus.LabeledCommit) [][]float64 {
	l.Precompute(pool)
	rows := make([][]float64, len(pool))
	for i, lc := range pool {
		rows[i] = l.Features(lc)
	}
	return rows
}

// SetRound is a Table II row: an augmentation round annotated with its pool.
type SetRound struct {
	Set string
	augment.Round
}

// RunAugmentation executes the paper's five-round schedule (three rounds on
// Set I, one on Set II, one on Set III) once and caches the outcome: the
// per-round accounting and the discovered wild security / cleaned
// non-security sets used by every downstream experiment.
func (l *Lab) RunAugmentation() ([]SetRound, error) {
	l.augOnce.Do(func() {
		seed := l.FeatureRows(l.NVD)
		rounds := 0

		run := func(name string, pool []*corpus.LabeledCommit, maxRounds int) *augment.Result {
			if l.augErr != nil {
				return nil
			}
			res, err := augment.Run(context.Background(), seed, l.Items(pool), l.Oracle, rounds+1, augment.Config{
				MaxRounds:      maxRounds,
				RatioThreshold: 0.01,
			})
			if err != nil {
				l.augErr = fmt.Errorf("augmentation on %s: %w", name, err)
				return nil
			}
			for _, r := range res.Rounds {
				l.augRows = append(l.augRows, SetRound{Set: name, Round: r})
				rounds++
			}
			seed = res.SeedFeatures
			for _, id := range res.SecurityIDs {
				if lc, ok := l.Lookup(id); ok {
					l.wildSec = append(l.wildSec, lc)
				}
			}
			for _, id := range res.NonSecurityIDs {
				if lc, ok := l.Lookup(id); ok {
					l.wildNon = append(l.wildNon, lc)
				}
			}
			return res
		}
		run(fmt.Sprintf("Set I: %d", len(l.SetI)), l.SetI, 3)
		run(fmt.Sprintf("Set II: %d", len(l.SetII)), l.SetII, 1)
		run(fmt.Sprintf("Set III: %d", len(l.SetIII)), l.SetIII, 1)
	})
	return l.augRows, l.augErr
}

// WildSecurity returns the nearest-link-discovered wild security patches
// (running the augmentation schedule if needed).
func (l *Lab) WildSecurity() ([]*corpus.LabeledCommit, error) {
	if _, err := l.RunAugmentation(); err != nil {
		return nil, err
	}
	return l.wildSec, nil
}

// WildNonSecurity returns the cleaned non-security candidates.
func (l *Lab) WildNonSecurity() ([]*corpus.LabeledCommit, error) {
	if _, err := l.RunAugmentation(); err != nil {
		return nil, err
	}
	return l.wildNon, nil
}
