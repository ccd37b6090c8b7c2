// Package oracle simulates the paper's manual verification step: three
// security researchers label each candidate independently and cross-check by
// majority vote. Ground truth comes from the corpus generator; the oracle
// reproduces the labeling interface, an optional per-annotator error model,
// and the effort accounting (number of candidates inspected) that Table II
// and Table III report.
package oracle

import (
	"math/rand"
	"sync"
)

// Option configures an Oracle.
type Option func(*Oracle)

// annotators is the number of simulated researchers who vote on each
// candidate, as in the paper.
const annotators = 3

// WithErrorRate sets the per-annotator probability of flipping a label
// (default 0: experts are reliable after cross-checking).
func WithErrorRate(r float64) Option {
	return func(o *Oracle) { o.errorRate = r }
}

// WithSeed seeds the annotator noise.
func WithSeed(seed int64) Option {
	return func(o *Oracle) { o.rng = rand.New(rand.NewSource(seed)) }
}

// Oracle verifies candidates against ground-truth labels.
type Oracle struct {
	mu        sync.Mutex
	labels    map[string]bool // commit hash -> is security patch
	errorRate float64
	rng       *rand.Rand
	inspected int
}

// New builds an oracle over ground-truth labels (commit hash -> security).
func New(labels map[string]bool, opts ...Option) *Oracle {
	o := &Oracle{
		labels: labels,
		rng:    rand.New(rand.NewSource(7)),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Verify labels one candidate: each annotator reads the commit (possibly
// erring), and the majority decision is returned. Every call counts toward
// the inspection effort.
func (o *Oracle) Verify(hash string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inspected++
	truth := o.labels[hash]
	if o.errorRate <= 0 {
		return truth
	}
	votes := 0
	for a := 0; a < annotators; a++ {
		v := truth
		if o.rng.Float64() < o.errorRate {
			v = !v
		}
		if v {
			votes++
		}
	}
	return votes*2 > annotators
}

// Inspected returns how many candidates have been manually examined — the
// human-effort metric the nearest link search is designed to minimize.
func (o *Oracle) Inspected() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inspected
}

// SetInspected restores the inspection counter to a journaled value, so a
// build resumed from a checkpoint reports the same cumulative human effort
// as an uninterrupted run.
func (o *Oracle) SetInspected(n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inspected = n
}
