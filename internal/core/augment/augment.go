// Package augment drives PatchDB's human-in-the-loop dataset augmentation
// (Fig. 2): candidate selection by nearest link search, (simulated) manual
// verification, and the loop judgment that repeats rounds while the security
// ratio among candidates stays above a threshold. It produces the per-round
// accounting reported in Table II.
//
// All rounds over one pool share one nearest-link engine
// (nearestlink.Rounds): after each round's verification, the engine is told
// which candidates left the pool and which of them joined the verified
// security set, so the next round compacts the engine instead of preparing
// the whole pool again. Its links are the same as a fresh search's.
package augment

import (
	"context"
	"errors"
	"fmt"

	"patchdb/internal/core/nearestlink"
)

// Item is one unlabeled wild patch in the search pool.
type Item struct {
	// ID identifies the underlying commit.
	ID string
	// Features is the 60-dim syntactic feature vector.
	Features []float64
}

// Verifier is the manual-verification interface; the oracle package
// implements it by replaying ground truth.
type Verifier interface {
	Verify(id string) bool
}

// DefaultRatioThreshold is the early-exit threshold a zero
// Config.RatioThreshold stands for: a round whose verified-security ratio
// falls below 1% ends the pool's schedule.
const DefaultRatioThreshold = 0.01

// Config tunes the augmentation loop.
type Config struct {
	// MaxRounds bounds the number of rounds over one pool (default 3, the
	// paper's Set I schedule).
	MaxRounds int
	// RatioThreshold exits the loop when the verified-security ratio of a
	// round falls below it. Zero means DefaultRatioThreshold; any negative
	// value disables the early exit entirely, so all MaxRounds rounds run
	// regardless of how the ratio develops.
	RatioThreshold float64
	// Workers for the nearest link search.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 3
	}
	if c.RatioThreshold == 0 {
		c.RatioThreshold = DefaultRatioThreshold
	}
	return c
}

// Round is the accounting for one augmentation round (one row of Table II).
type Round struct {
	Round       int
	SearchRange int // unlabeled pool size when the round started
	Candidates  int
	Verified    int // candidates verified as security patches
	Ratio       float64
	// Search is the round's full nearest-link engine accounting (distance
	// evaluations, pruned fraction, heap activity, and the search's
	// wall-clock Duration).
	Search nearestlink.Stats
}

// String renders the round like a Table II row.
func (r Round) String() string {
	return fmt.Sprintf("round %d: range=%d candidates=%d verified=%d ratio=%.0f%%",
		r.Round, r.SearchRange, r.Candidates, r.Verified, 100*r.Ratio)
}

// Result is the outcome of an augmentation run.
type Result struct {
	Rounds []Round
	// Search is the aggregate nearest-link engine accounting of the run:
	// the sum of each round's Search.
	Search nearestlink.Totals
	// SecurityIDs are wild patches verified as security patches.
	SecurityIDs []string
	// NonSecurityIDs are verified non-security candidates (they join the
	// cleaned negative set).
	NonSecurityIDs []string
	// SeedFeatures is the enlarged verified-security feature set after the
	// run (input seed plus discovered positives).
	SeedFeatures [][]float64
}

// ErrEmptyPool is returned when the wild pool has no items.
var ErrEmptyPool = errors.New("augment: empty wild pool")

// Run executes augmentation rounds over one unlabeled pool. seed holds the
// feature vectors of already-verified security patches; it is enlarged as
// rounds discover new positives. Verified candidates (either label) leave
// the pool. startRound numbers the produced rounds (Table II numbers rounds
// across pools). ctx is checked between rounds and between verifications;
// cancellation aborts the run with a wrapped context error.
func Run(ctx context.Context, seed [][]float64, pool []Item, verifier Verifier, startRound int, cfg Config) (*Result, error) {
	if len(pool) == 0 {
		return nil, ErrEmptyPool
	}
	if len(seed) == 0 {
		return nil, nearestlink.ErrNoSecurityPatches
	}
	cfg = cfg.withDefaults()

	res := &Result{SeedFeatures: append([][]float64(nil), seed...)}
	active := append([]Item(nil), pool...)
	wildX := make([][]float64, len(active))
	for i, it := range active {
		wildX[i] = it.Features
	}
	// One engine serves every round over this pool: after verification it
	// learns which columns left and which joined the security side, in the
	// order they were appended to SeedFeatures.
	var searchStats nearestlink.Stats
	rounds := nearestlink.NewRounds(res.SeedFeatures, wildX,
		&nearestlink.Options{Workers: cfg.Workers, Stats: &searchStats})
	defer rounds.Close()

	for round := 0; round < cfg.MaxRounds && len(active) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("augment: canceled before round %d: %w", startRound+round, err)
		}
		links, err := rounds.Search(ctx)
		if err != nil {
			return nil, fmt.Errorf("augment round %d: %w", startRound+round, err)
		}

		r := Round{
			Round:       startRound + round,
			SearchRange: len(active),
			Candidates:  len(links),
			Search:      searchStats,
		}
		selected := make([]bool, len(active))
		removed := make([]int, 0, len(links))
		var promoted []int
		for _, l := range links {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("augment: canceled during round %d verification: %w", r.Round, err)
			}
			selected[l.Wild] = true
			removed = append(removed, l.Wild)
			item := active[l.Wild]
			if verifier.Verify(item.ID) {
				r.Verified++
				res.SecurityIDs = append(res.SecurityIDs, item.ID)
				res.SeedFeatures = append(res.SeedFeatures, item.Features)
				promoted = append(promoted, l.Wild)
			} else {
				res.NonSecurityIDs = append(res.NonSecurityIDs, item.ID)
			}
		}
		if r.Candidates > 0 {
			r.Ratio = float64(r.Verified) / float64(r.Candidates)
		}
		res.Rounds = append(res.Rounds, r)

		// Remove all verified candidates from the pool, keeping its order,
		// as the engine does.
		if err := rounds.Remove(removed, promoted); err != nil {
			return nil, fmt.Errorf("augment round %d: %w", r.Round, err)
		}
		next := active[:0]
		for i, it := range active {
			if !selected[i] {
				next = append(next, it)
			}
		}
		active = next

		// A negative threshold disables the early exit (the loop judgment
		// of Fig. 2 runs all scheduled rounds).
		if cfg.RatioThreshold > 0 && r.Ratio < cfg.RatioThreshold {
			break
		}
	}
	for _, r := range res.Rounds {
		res.Search.Add(r.Search)
	}
	return res, nil
}
