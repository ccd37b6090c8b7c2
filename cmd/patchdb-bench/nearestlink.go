package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"patchdb/internal/atomicio"
	"patchdb/internal/experiments"

	"patchdb/internal/core/nearestlink"
)

// nearestLinkJSON is the perf-trajectory artifact the NEARESTLINK
// experiment emits, one row per (M, N, workers) sweep point.
const nearestLinkJSON = "BENCH_nearestlink.json"

// referenceVerifyCap bounds the M*N size at which the sweep runs the full
// O(M·N·d) reference implementation — cross-checking every link bit-for-bit
// and timing a directly measured speedup. Above it the reference run would
// dominate the sweep's wall-clock, so those shapes time a deterministic
// seed-row subsample instead (reference_mode: "sampled").
const referenceVerifyCap = 25_000_000

// referenceSampleSeeds is the seed-row subsample a too-large shape times the
// reference on: the reference cost is linear in M (each seed row is one full
// O(N·d) scan plus its share of greedy rescans), so the measurement scales
// to the full M by M/referenceSampleSeeds.
const referenceSampleSeeds = 64

// sweepRepeats is how many times the sweep times the engine on each
// (M, N, workers) row: a row reports the median and the range, so a change
// can be read against the spread of identical runs. The reference timing
// and the smoke run stay single-shot.
const sweepRepeats = 5

// spotCheckSeeds is how many seeds every shape verifies against the
// reference semantics via nearestlink.VerifySampled: each sampled link gets
// one brute-force reference-order row scan over the columns unused at its
// assignment time, so even shapes too large for a full reference run report
// a real verification verdict instead of verified_identical: false.
const spotCheckSeeds = 64

// nlRow is one sweep measurement.
type nlRow struct {
	M    int `json:"m"`
	N    int `json:"n"`
	Dims int `json:"dims"`
	// Workers is the resolved worker count the engine actually ran with
	// (never 0: a zero request resolves to GOMAXPROCS).
	Workers int `json:"workers"`
	// NsPerOp is the median of Repeats timed searches, NsMin and NsMax
	// their range.
	NsPerOp        int64   `json:"ns_per_op"`
	NsMin          int64   `json:"ns_min"`
	NsMax          int64   `json:"ns_max"`
	Repeats        int     `json:"repeats"`
	DistanceEvals  int64   `json:"distance_evals"`
	NormPruned     int64   `json:"norm_pruned"`
	EarlyExited    int64   `json:"early_exited"`
	PrunedFraction float64 `json:"pruned_fraction"`
	Rescans        int     `json:"rescans"`
	SecondBestHits int     `json:"second_best_hits"`
	HeapPops       int     `json:"heap_pops"`
	// ReferenceNsPerOp and Speedup are populated for every row.
	// ReferenceMode records how the reference was timed: "full" is a
	// complete reference run over the same instance, "sampled" scales a
	// referenceSampleSeeds-row subsample measurement to the full M.
	ReferenceNsPerOp     int64   `json:"reference_ns_per_op"`
	Speedup              float64 `json:"speedup_vs_reference"`
	ReferenceMode        string  `json:"reference_mode"`
	ReferenceSampleSeeds int     `json:"reference_sample_seeds,omitempty"`
	Verified             bool    `json:"verified_identical"`
	// VerifyMode records how the row was verified: "full+spot" when the
	// whole link set was compared against a reference run, "spot" when only
	// the sampled per-seed reference scans ran.
	VerifyMode string `json:"verify_mode"`
	// SpotCheckedSeeds is how many links the sampled verification scanned.
	SpotCheckedSeeds int `json:"spot_checked_seeds"`
}

type nlResult struct {
	Experiment string  `json:"experiment"`
	Scale      string  `json:"scale"`
	Rows       []nlRow `json:"rows"`
	path       string
	smoke      bool
}

func (r nlResult) String() string {
	var sb strings.Builder
	sb.WriteString("NEARESTLINK: flat-layout pruned search engine sweep\n")
	sb.WriteString("      M        N   wrk    median            range      evals  pruned  rescans  2nd-best   speedup\n")
	ms := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Millisecond) }
	for _, row := range r.Rows {
		speed := fmt.Sprintf("%6.1fx", row.Speedup)
		if row.ReferenceMode == "sampled" {
			speed += "~" // estimated against a sampled reference timing
		}
		verified := ""
		switch {
		case row.Verified && row.VerifyMode == "full+spot":
			verified = " =ref"
		case row.Verified:
			verified = fmt.Sprintf(" =ref(%d sampled)", row.SpotCheckedSeeds)
		}
		fmt.Fprintf(&sb, "  %5d  %7d  %4d  %8s  %15s  %9d  %5.1f%%  %7d  %8d  %s%s\n",
			row.M, row.N, row.Workers, ms(row.NsPerOp), ms(row.NsMin).String()+"–"+ms(row.NsMax).String(),
			row.DistanceEvals, 100*row.PrunedFraction, row.Rescans,
			row.SecondBestHits, speed, verified)
	}
	if r.smoke {
		sb.WriteString("  smoke gate: every row fully verified against the reference; artifact not written")
	} else {
		fmt.Fprintf(&sb, "  wrote %s", r.path)
	}
	return sb.String()
}

// nlShapes picks the sweep sizes for a scale: the default/paper scales run
// the full trajectory up to 2k seeds × 200k wild commits.
func nlShapes(scale experiments.Scale) [][2]int {
	if strings.HasPrefix(scale.Name, "small") {
		return [][2]int{{100, 10_000}, {250, 25_000}}
	}
	return [][2]int{{500, 50_000}, {1000, 100_000}, {2000, 200_000}}
}

// nlWorkerSweep picks the worker counts per shape: an explicit -workers flag
// runs just that count; the default runs one worker and one per CPU the
// process may use, since more workers than that only measure
// oversubscription.
func nlWorkerSweep(flagWorkers int) []int {
	if flagWorkers > 0 {
		return []int{flagWorkers}
	}
	return slices.Compact([]int{1, runtime.GOMAXPROCS(0)})
}

// resolveWorkers mirrors the engine's Options resolution so the artifact
// records the worker count actually used, never a raw 0 request.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// synthFeatureRows generates feature-like vectors mimicking the 60-dim
// syntactic features the real pipeline extracts: sparse non-negative counts,
// per-dimension scale variation, and a long-tailed per-row commit-size
// factor (big commits have uniformly large counts) — the spread the
// engine's norm bound prunes against in practice.
func synthFeatureRows(rng *rand.Rand, n, d int) [][]float64 {
	scale := make([]float64, d)
	for j := range scale {
		scale[j] = 1 + 9*rng.Float64()
	}
	out := make([][]float64, n)
	for i := range out {
		size := math.Exp(1.2 * rng.NormFloat64())
		row := make([]float64, d)
		for j := range row {
			if rng.Float64() < 0.5 { // sparse: most features zero
				continue
			}
			row[j] = math.Floor(rng.ExpFloat64() * scale[j] * size)
		}
		out[i] = row
	}
	return out
}

// nlReference times (and where affordable fully runs) the reference search
// for one shape. For shapes under referenceVerifyCap it returns the timed
// full-instance link set; larger shapes time a deterministic seed-row
// subsample and scale the measurement linearly to the full M, returning nil
// links. The subsample reuses the instance's own rows, so the timing sees
// the same wild pool and dimensionality the engine did.
func nlReference(sec, wild [][]float64, m, n int) (links []nearestlink.Link, refNs int64, mode string, sampleSeeds int, err error) {
	if m*n <= referenceVerifyCap {
		start := time.Now()
		links, err = nearestlink.ReferenceSearch(sec, wild, nil)
		if err != nil {
			return nil, 0, "", 0, err
		}
		return links, time.Since(start).Nanoseconds(), "full", 0, nil
	}
	sub := referenceSampleSeeds
	if sub > m {
		sub = m
	}
	start := time.Now()
	if _, err = nearestlink.ReferenceSearch(sec[:sub], wild, nil); err != nil {
		return nil, 0, "", 0, err
	}
	est := time.Since(start).Nanoseconds() / int64(sub) * int64(m)
	return nil, est, "sampled", sub, nil
}

// timeSearch runs the engine repeats times on one instance and returns the
// first run's links and stats with the sorted wall times. Every run must
// report the first run's accounting, which the engine fixes for a given
// input.
func timeSearch(sec, wild [][]float64, workers, repeats int) ([]nearestlink.Link, nearestlink.Stats, []int64, error) {
	var links []nearestlink.Link
	var first nearestlink.Stats
	ns := make([]int64, repeats)
	for r := range ns {
		var st nearestlink.Stats
		start := time.Now()
		got, err := nearestlink.Search(context.Background(), sec, wild,
			&nearestlink.Options{Workers: workers, Stats: &st})
		ns[r] = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, st, nil, err
		}
		st.Duration = 0
		if r == 0 {
			links, first = got, st
		} else if st != first {
			return nil, st, nil, fmt.Errorf("run %d stats %+v differ from run 0's %+v", r, st, first)
		}
	}
	slices.Sort(ns)
	return links, first, ns, nil
}

// runNearestLink sweeps the engine over growing (M, N) instances and worker
// counts, verifies bit-identical links against the reference where
// affordable (and spot-checks everywhere), and writes the measurements to
// BENCH_nearestlink.json. In smoke mode it instead runs one tiny shape with
// every row fully reference-verified and skips the artifact write — the CI
// gate form of the sweep.
func runNearestLink(scale experiments.Scale, flagWorkers int, smoke bool) (fmt.Stringer, error) {
	const dims = 60
	res := nlResult{Experiment: "nearestlink", Scale: scale.Name, path: nearestLinkJSON, smoke: smoke}
	shapes := nlShapes(scale)
	repeats := sweepRepeats
	if smoke {
		res.Scale = "smoke"
		shapes = [][2]int{{50, 2000}}
		repeats = 1
	}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		rng := rand.New(rand.NewSource(scale.Seed + int64(m)*31 + int64(n)))
		sec := synthFeatureRows(rng, m, dims)
		wild := synthFeatureRows(rng, n, dims)

		// The reference cost does not depend on the engine's worker sweep, so
		// each shape runs (or samples) the reference once and every worker
		// row reports its speedup against the same measurement.
		want, refNs, refMode, refSeeds, err := nlReference(sec, wild, m, n)
		if err != nil {
			return nil, fmt.Errorf("%dx%d reference: %w", m, n, err)
		}

		for _, workers := range nlWorkerSweep(flagWorkers) {
			links, st, ns, err := timeSearch(sec, wild, workers, repeats)
			if err != nil {
				return nil, fmt.Errorf("%dx%d w=%d: %w", m, n, workers, err)
			}
			row := nlRow{
				M: m, N: n, Dims: dims,
				Workers:              resolveWorkers(workers),
				NsPerOp:              ns[len(ns)/2],
				NsMin:                ns[0],
				NsMax:                ns[len(ns)-1],
				Repeats:              repeats,
				DistanceEvals:        st.DistanceEvals,
				NormPruned:           st.NormPruned,
				EarlyExited:          st.EarlyExited,
				PrunedFraction:       st.PrunedFraction(),
				Rescans:              st.Rescans,
				SecondBestHits:       st.SecondBestHits,
				HeapPops:             st.HeapPops,
				ReferenceNsPerOp:     refNs,
				ReferenceMode:        refMode,
				ReferenceSampleSeeds: refSeeds,
			}
			if row.NsPerOp > 0 {
				row.Speedup = float64(refNs) / float64(row.NsPerOp)
			}
			// Every row runs the sampled reference spot-check; rows with a
			// full reference run additionally compare the whole link set.
			samples := spotCheckSeeds
			if smoke {
				samples = m // smoke: brute-force every link
			}
			checked, err := nearestlink.VerifySampled(sec, wild, links,
				&nearestlink.Options{Workers: workers}, samples, scale.Seed)
			if err != nil {
				return nil, fmt.Errorf("%dx%d w=%d spot-check: %w", m, n, workers, err)
			}
			row.SpotCheckedSeeds = checked
			row.Verified = true
			row.VerifyMode = "spot"
			if want != nil {
				if len(links) != len(want) {
					return nil, fmt.Errorf("%dx%d w=%d: engine %d links, reference %d",
						m, n, workers, len(links), len(want))
				}
				for k := range want {
					if links[k] != want[k] {
						return nil, fmt.Errorf("%dx%d w=%d: link %d diverges: engine %+v, reference %+v",
							m, n, workers, k, links[k], want[k])
					}
				}
				row.VerifyMode = "full+spot"
			}
			res.Rows = append(res.Rows, row)
		}
	}
	if smoke {
		return res, nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := atomicio.WriteFile(nearestLinkJSON, append(data, '\n')); err != nil {
		return nil, fmt.Errorf("write %s: %w", nearestLinkJSON, err)
	}
	return res, nil
}
