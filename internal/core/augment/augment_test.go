package augment

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"patchdb/internal/core/nearestlink"
)

// mapVerifier labels items by a ground-truth map.
type mapVerifier struct {
	truth     map[string]bool
	inspected int
}

func (v *mapVerifier) Verify(id string) bool {
	v.inspected++
	return v.truth[id]
}

// world builds a seed cluster at 0 and a pool with positives near 0 and
// negatives near 10.
func world(nSeed, nPos, nNeg int) (seed [][]float64, pool []Item, truth map[string]bool) {
	truth = make(map[string]bool)
	for i := 0; i < nSeed; i++ {
		seed = append(seed, []float64{float64(i) * 0.01})
	}
	for i := 0; i < nPos; i++ {
		id := "pos" + strconv.Itoa(i)
		pool = append(pool, Item{ID: id, Features: []float64{0.5 + float64(i)*0.01}})
		truth[id] = true
	}
	for i := 0; i < nNeg; i++ {
		id := "neg" + strconv.Itoa(i)
		pool = append(pool, Item{ID: id, Features: []float64{10 + float64(i)*0.01}})
		truth[id] = false
	}
	return seed, pool, truth
}

func TestRunDiscoversPositives(t *testing.T) {
	seed, pool, truth := world(5, 20, 100)
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 1, Config{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds ran")
	}
	r1 := res.Rounds[0]
	if r1.Round != 1 || r1.SearchRange != 120 || r1.Candidates != 5 {
		t.Errorf("round 1 = %+v", r1)
	}
	if r1.Verified != 5 || r1.Ratio != 1.0 {
		t.Errorf("round 1 should find only positives near the seed: %+v", r1)
	}
	// Seed grows with every discovered positive.
	if len(res.SeedFeatures) != len(seed)+len(res.SecurityIDs) {
		t.Errorf("seed features = %d", len(res.SeedFeatures))
	}
	for _, id := range res.SecurityIDs {
		if !truth[id] {
			t.Errorf("non-security id %q in SecurityIDs", id)
		}
	}
	for _, id := range res.NonSecurityIDs {
		if truth[id] {
			t.Errorf("security id %q in NonSecurityIDs", id)
		}
	}
}

func TestRunRemovesVerifiedFromPool(t *testing.T) {
	seed, pool, truth := world(10, 10, 10)
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 1, Config{MaxRounds: 5, RatioThreshold: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.SecurityIDs) + len(res.NonSecurityIDs)
	if total != v.inspected {
		t.Errorf("inspected %d but recorded %d", v.inspected, total)
	}
	seen := map[string]bool{}
	for _, id := range append(append([]string{}, res.SecurityIDs...), res.NonSecurityIDs...) {
		if seen[id] {
			t.Fatalf("candidate %q verified twice (pool removal broken)", id)
		}
		seen[id] = true
	}
}

func TestRunStopsOnLowRatio(t *testing.T) {
	// All positives are found in round 1; round 2's candidates are
	// negatives, driving the ratio to 0 and stopping the loop.
	seed, pool, truth := world(10, 10, 200)
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 1, Config{MaxRounds: 10, RatioThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) >= 10 {
		t.Errorf("loop did not stop early: %d rounds", len(res.Rounds))
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.Ratio >= 0.3 {
		t.Errorf("last round ratio %v above threshold", last.Ratio)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), [][]float64{{1}}, nil, &mapVerifier{}, 1, Config{}); !errors.Is(err, ErrEmptyPool) {
		t.Errorf("empty pool err = %v", err)
	}
	if _, err := Run(context.Background(), nil, []Item{{ID: "a", Features: []float64{1}}}, &mapVerifier{}, 1, Config{}); !errors.Is(err, nearestlink.ErrNoSecurityPatches) {
		t.Errorf("empty seed err = %v", err)
	}
}

func TestRoundNumbering(t *testing.T) {
	seed, pool, truth := world(3, 10, 10)
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 4, Config{MaxRounds: 2, RatioThreshold: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].Round != 4 {
		t.Errorf("first round numbered %d, want 4", res.Rounds[0].Round)
	}
	if s := res.Rounds[0].String(); s == "" {
		t.Error("empty round string")
	}
}

// negWorld builds a world where every pool item is a non-security patch, so
// every round's ratio is 0.
func negWorld(nSeed, nNeg int) (seed [][]float64, pool []Item, truth map[string]bool) {
	truth = make(map[string]bool)
	for i := 0; i < nSeed; i++ {
		seed = append(seed, []float64{float64(i) * 0.01})
	}
	for i := 0; i < nNeg; i++ {
		id := "neg" + strconv.Itoa(i)
		pool = append(pool, Item{ID: id, Features: []float64{1 + float64(i)*0.01}})
		truth[id] = false
	}
	return seed, pool, truth
}

func TestRunEarlyExitBelowThreshold(t *testing.T) {
	seed, pool, truth := negWorld(5, 40)
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 1, Config{MaxRounds: 5, RatioThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1 (ratio 0 < threshold must exit after round 1)", len(res.Rounds))
	}
	if res.Rounds[0].Ratio != 0 {
		t.Errorf("ratio = %v", res.Rounds[0].Ratio)
	}
}

func TestRunZeroThresholdUsesDefault(t *testing.T) {
	// Explicit zero is the unset value and takes DefaultRatioThreshold —
	// the all-negative world exits after one round.
	seed, pool, truth := negWorld(5, 40)
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 1, Config{MaxRounds: 4, RatioThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1 under the default threshold", len(res.Rounds))
	}
}

func TestRunNegativeThresholdDisablesEarlyExit(t *testing.T) {
	seed, pool, truth := negWorld(5, 40)
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 1, Config{MaxRounds: 4, RatioThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d, want all 4 (negative threshold disables loop judgment)", len(res.Rounds))
	}
	// 5 seed rows select 5 candidates per round; all leave the pool.
	if got := len(res.NonSecurityIDs); got != 20 {
		t.Errorf("non-security verified = %d, want 20", got)
	}
}

func TestRunPoolBookkeepingAfterCollisions(t *testing.T) {
	// Every pool item has identical features, so every round's nearest link
	// search resolves column collisions for all but the first seed row. The
	// bookkeeping must still remove each verified candidate exactly once.
	truth := make(map[string]bool)
	var seed [][]float64
	for i := 0; i < 4; i++ {
		seed = append(seed, []float64{0})
	}
	var pool []Item
	for i := 0; i < 10; i++ {
		id := "dup" + strconv.Itoa(i)
		pool = append(pool, Item{ID: id, Features: []float64{0.5}})
		truth[id] = i%2 == 0
	}
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 1, Config{MaxRounds: 10, RatioThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, id := range append(append([]string{}, res.SecurityIDs...), res.NonSecurityIDs...) {
		if seen[id] {
			t.Fatalf("candidate %q verified twice after collisions", id)
		}
		seen[id] = true
	}
	if len(seen) != 10 {
		t.Errorf("verified %d distinct candidates, want the whole pool (10)", len(seen))
	}
	if v.inspected != 10 {
		t.Errorf("inspections = %d, want 10", v.inspected)
	}
}

func TestRunRoundNumberingAcrossPools(t *testing.T) {
	// Table II numbers rounds continuously across pools: the builder chains
	// startRound = 1 + rounds so far. Verify the continuity end-to-end.
	seedA, poolA, truthA := world(3, 6, 6)
	v := &mapVerifier{truth: truthA}
	resA, err := Run(context.Background(), seedA, poolA, v, 1, Config{MaxRounds: 2, RatioThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, poolB, truthB := world(3, 6, 6)
	for id, sec := range truthB {
		truthA[id] = sec
	}
	resB, err := Run(context.Background(), resA.SeedFeatures, poolB, v, 1+len(resA.Rounds), Config{MaxRounds: 2, RatioThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	var nums []int
	for _, r := range append(append([]Round{}, resA.Rounds...), resB.Rounds...) {
		nums = append(nums, r.Round)
	}
	for i, n := range nums {
		if n != i+1 {
			t.Fatalf("round numbering = %v, want 1..%d contiguous", nums, len(nums))
		}
	}
}

func TestRunCanceled(t *testing.T) {
	seed, pool, truth := world(3, 5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, seed, pool, &mapVerifier{truth: truth}, 1, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestRunRecordsSearchTime(t *testing.T) {
	seed, pool, truth := world(5, 10, 10)
	res, err := Run(context.Background(), seed, pool, &mapVerifier{truth: truth}, 1, Config{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Rounds[0].Search.Duration; d <= 0 {
		t.Errorf("search time = %v, want > 0", d)
	}
}

// TestRunSearchTotalsMatchRounds pins the reporting contract: Result.Search
// is snapshotted once after the final round completes and must equal the sum
// of every round's engine stats — the numbers a caller reports can never
// diverge from the work the engine actually did.
func TestRunSearchTotalsMatchRounds(t *testing.T) {
	seed, pool, truth := world(5, 30, 150)
	v := &mapVerifier{truth: truth}
	res, err := Run(context.Background(), seed, pool, v, 1, Config{MaxRounds: 3, RatioThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("want multiple rounds, got %d", len(res.Rounds))
	}
	var want nearestlink.Totals
	for _, r := range res.Rounds {
		want.Add(r.Search)
	}
	if res.Search != want {
		t.Errorf("Result.Search = %+v, want sum of rounds %+v", res.Search, want)
	}
	if res.Search.Searches != len(res.Rounds) {
		t.Errorf("Searches = %d, want one per round (%d)", res.Search.Searches, len(res.Rounds))
	}
	if res.Search.DistanceEvals == 0 {
		t.Error("no distance evaluations recorded")
	}
}
