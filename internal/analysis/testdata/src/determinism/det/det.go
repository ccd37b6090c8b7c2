// Package det is determinism-analyzer golden testdata. The harness loads it
// under deterministic import paths (patchdb/internal/core/det and
// patchdb/internal/ml/det), where every `want` line must be reported, and
// again under non-deterministic paths, where nothing may be.
package det

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want `wall-clock read time.Now`
	return time.Since(start) // want `wall-clock read time.Since`
}

func clockConstantsAreFine() time.Duration {
	return 5 * time.Millisecond
}

func globalRand() int {
	return rand.Intn(10) // want `process-global rand.Intn`
}

func seededRandIsFine(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

func suppressedWallClock() time.Time {
	//lint:ignore determinism golden-test case for directive suppression
	return time.Now()
}

func mapFeedsSlice(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order feeds "keys" without a sort`
		keys = append(keys, k)
	}
	return keys
}

func mapSortedAfterIsFine(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mapFeedsOutput(m map[string]int) {
	for k, v := range m { // want `map iteration order feeds output directly`
		fmt.Println(k, v)
	}
}

func mapAccumulationIsFine(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

func mapLocalAppendIsFine(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}
