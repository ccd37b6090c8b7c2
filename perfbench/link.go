package main

import (
	"context"
	"fmt"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/nearestlink"
	"patchdb/internal/corpus"
	"patchdb/internal/oracle"
)

// linkShape sizes the link workload.
type linkShape struct {
	Cells  int // independent corpora per op
	Seeds  int // verified NVD security patches per cell (the search's rows)
	Pool   int // unlabeled wild commits per cell (the search's columns)
	Rounds int // augmentation rounds per cell, all run (no early exit)
	Verify int // round-1 links per cell brute-force checked once per run
}

// linkBench runs Algorithm 1 plus oracle verification (augment.Run) over
// pools whose features were extracted in set-up: nearest link does nearly
// all of the op's work. An op covers several independent corpora because
// the search's work depends on the corpus (distance evaluations vary with
// a coefficient of variation of ~0.17 between corpora of one shape), and
// the op's cost must not swing with the seed.
type linkBench struct {
	seed  int64
	sh    linkShape
	cells []linkCell
	items int // feature rows extracted in set-up
}

// linkCell is one corpus of the op.
type linkCell struct {
	seed   int64
	labels map[string]bool
	seedX  [][]float64
	pool   []augment.Item
	last   *augment.Result
}

func newLinkBench(cfg config) *linkBench {
	sh := linkShape{Cells: 8, Seeds: 100, Pool: 5000, Rounds: 3, Verify: 32}
	if cfg.smoke {
		sh = linkShape{Cells: 2, Seeds: 30, Pool: 600, Rounds: 3, Verify: 16}
	}
	return &linkBench{seed: cfg.seed, sh: sh}
}

func (b *linkBench) shape() map[string]any {
	return map[string]any{"cells": b.sh.Cells, "seeds": b.sh.Seeds, "pool": b.sh.Pool, "rounds": b.sh.Rounds,
		"ratio_threshold": -1, "workers": workers, "verify_sample": b.sh.Verify}
}

func (b *linkBench) prepare(tr *tracer) {
	b.cells = make([]linkCell, b.sh.Cells)
	for c := range b.cells {
		cell := &b.cells[c]
		cell.seed = b.seed*1000 + int64(c)
		gen := corpus.NewGenerator(corpus.Config{Seed: cell.seed})
		nvd := gen.GenerateNVD(b.sh.Seeds)
		wild := gen.GenerateWild(b.sh.Pool)
		cell.labels = make(map[string]bool, len(wild))
		for _, lc := range wild {
			cell.labels[lc.Commit.Hash] = lc.Security
		}
		cell.seedX = extractFeatures(tr, 0, patchesOf(nvd))
		wildX := extractFeatures(tr, 0, patchesOf(wild))
		b.items += len(cell.seedX) + len(wildX)
		cell.pool = make([]augment.Item, len(wild))
		for i, lc := range wild {
			cell.pool[i] = augment.Item{ID: lc.Commit.Hash, Features: wildX[i]}
		}
	}
}

func (b *linkBench) op(tr *tracer, root int) (map[string]float64, error) {
	var totals nearestlink.Totals
	var rounds []augment.Round
	verifications := 0
	for c := range b.cells {
		cell := &b.cells[c]
		verifier := oracle.New(cell.labels)
		err := tr.call("augment", root, func(id int) error {
			res, err := augment.Run(context.Background(), cell.seedX, cell.pool, verifier, 1,
				augment.Config{MaxRounds: b.sh.Rounds, RatioThreshold: -1, Workers: workers})
			if err != nil {
				return fmt.Errorf("cell %d: %w", c, err)
			}
			tr.derived("nearestlink", id, res.Search.Duration)
			cell.last = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		totals.Merge(cell.last.Search)
		rounds = append(rounds, cell.last.Rounds...)
		verifications += verifier.Inspected()
	}
	counts := map[string]float64{}
	searchCounts(totals, counts)
	counts["augment.hit_ratio"] = hitRatio(rounds)
	counts["augment.verifications"] = float64(verifications)
	return counts, nil
}

// digest covers every cell's round accounting and discovered IDs in order.
func (b *linkBench) digest() (string, error) {
	var parts []any
	for _, cell := range b.cells {
		for _, r := range cell.last.Rounds {
			parts = append(parts, r.Round, r.SearchRange, r.Candidates, r.Verified)
		}
		parts = append(parts, cell.last.SecurityIDs, cell.last.NonSecurityIDs)
	}
	return newDigest(parts...), nil
}

// checkRun re-runs each cell's round-1 search directly, checks that it
// selects the candidates round 1 verified, and brute-force checks a sample
// of its links against the greedy invariants (nearestlink.VerifySampled).
func (b *linkBench) checkRun() error {
	for c := range b.cells {
		if err := b.cells[c].check(b.sh); err != nil {
			return fmt.Errorf("cell %d: %w", c, err)
		}
	}
	return nil
}

func (cell *linkCell) check(sh linkShape) error {
	res := cell.last
	if len(res.Rounds) != sh.Rounds {
		return fmt.Errorf("ran %d rounds, want %d", len(res.Rounds), sh.Rounds)
	}
	for _, r := range res.Rounds {
		if r.Candidates == 0 {
			return fmt.Errorf("round %d selected no candidates", r.Round)
		}
	}
	wildX := make([][]float64, len(cell.pool))
	for i, it := range cell.pool {
		wildX[i] = it.Features
	}
	opts := &nearestlink.Options{Workers: workers}
	links, err := nearestlink.Search(context.Background(), cell.seedX, wildX, opts)
	if err != nil {
		return fmt.Errorf("round-1 search: %w", err)
	}
	r1 := res.Rounds[0]
	if len(links) != r1.Candidates {
		return fmt.Errorf("round-1 search gave %d links, augment round 1 had %d candidates", len(links), r1.Candidates)
	}
	want := map[string]bool{}
	for _, id := range res.SecurityIDs[:r1.Verified] {
		want[id] = true
	}
	for _, id := range res.NonSecurityIDs[:r1.Candidates-r1.Verified] {
		want[id] = true
	}
	for _, l := range links {
		if !want[cell.pool[l.Wild].ID] {
			return fmt.Errorf("round-1 link to %s is not among round 1's verified candidates", cell.pool[l.Wild].ID)
		}
	}
	if _, err := nearestlink.VerifySampled(cell.seedX, wildX, links, opts, sh.Verify, cell.seed); err != nil {
		return fmt.Errorf("round-1 links: %w", err)
	}
	return nil
}

func (b *linkBench) layers(ops, setup perUnit, counts map[string]float64) map[string]float64 {
	m := map[string]float64{
		"features.busy_s":    setup.secs("features"),
		"features.items":     float64(b.items),
		"nearestlink.busy_s": ops.secs("nearestlink"),
		"augment.self_s":     ops.secs("augment"),
	}
	copyCounts(counts, m)
	return m
}
