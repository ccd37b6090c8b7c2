package patchdb

// Benchmark harness: one benchmark per data-bearing table and figure of the
// paper (Tables II-VI, Figure 6), ablation benchmarks for the design choices
// DESIGN.md calls out, and micro-benchmarks for the hot paths (feature
// extraction, Levenshtein, Algorithm 1, diff computation, model training).
//
// Table/figure benchmarks run the full experiment at the small scale and
// report the paper-shaped output once via b.Log; run them individually with
//
//	go test -bench=BenchmarkTableII -benchmem
//
// and regenerate everything at the default (1/10-paper) scale with
//
//	go run ./cmd/patchdb-bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/nearestlink"
	"patchdb/internal/corpus"
	"patchdb/internal/diff"
	"patchdb/internal/experiments"
	"patchdb/internal/features"
	"patchdb/internal/lev"
	"patchdb/internal/ml"
	"patchdb/internal/ml/neural"
	"patchdb/internal/ml/tree"
	"patchdb/internal/oracle"
	"patchdb/internal/pipeline"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func sharedBenchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() { benchLab = experiments.NewLab(experiments.SmallScale) })
	return benchLab
}

// BenchmarkTableII regenerates the five-round augmentation accounting
// (search range, candidates, verified security patches, ratio).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.SmallScale)
		tab, err := lab.RunTableII()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkTableIII regenerates the augmentation-method comparison (brute
// force vs pseudo labeling vs uncertainty-based labeling vs nearest link).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.SmallScale)
		tab, err := lab.RunTableIII()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkTableIV regenerates the synthetic-patch study (RNN performance
// with and without source-level oversampling).
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.SmallScale)
		tab, err := lab.RunTableIV()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkTableV regenerates the PatchDB pattern-class distribution.
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.SmallScale)
		tab, err := lab.RunTableV()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFigure6 regenerates the NVD-vs-wild type-distribution contrast.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.SmallScale)
		fig, err := lab.RunFigure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + fig.String())
		}
	}
}

// BenchmarkTableVI regenerates the dataset-quality grid (2 training sets x
// 2 algorithms x 2 test sets).
func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.SmallScale)
		tab, err := lab.RunTableVI()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// --- Ablations -----------------------------------------------------------

// linkAblationInputs is the nearest-link ablations' problem: the NVD
// seed's feature rows against the Set I pool.
func linkAblationInputs(lab *experiments.Lab) (seedX, wildX [][]float64, pool []augment.Item) {
	seedX = lab.FeatureRows(lab.NVD)
	pool = lab.Items(lab.SetI)
	wildX = make([][]float64, len(pool))
	for i, it := range pool {
		wildX[i] = it.Features
	}
	return seedX, wildX, pool
}

// normalizationAblation returns the round-1 hit ratio of nearest link with
// the paper's max-abs feature weighting and of the raw-distance greedy.
func normalizationAblation(lab *experiments.Lab) (weighted, raw float64, err error) {
	seedX, wildX, pool := linkAblationInputs(lab)
	hitRatio := func(links []nearestlink.Link) float64 {
		hits := 0
		for _, l := range links {
			if lc, ok := lab.Lookup(pool[l.Wild].ID); ok && lc.Security {
				hits++
			}
		}
		return float64(hits) / float64(len(links))
	}
	links, err := nearestlink.Search(context.Background(), seedX, wildX, nil)
	if err != nil {
		return 0, 0, err
	}
	return hitRatio(links), hitRatio(rawGreedyLinks(seedX, wildX)), nil
}

// knnAblation returns how many links nearest link makes and how many
// distinct wild patches plain 1-NN selection picks.
func knnAblation(lab *experiments.Lab) (links, picks int, err error) {
	seedX, wildX, _ := linkAblationInputs(lab)
	l, err := nearestlink.Search(context.Background(), seedX, wildX, nil)
	if err != nil {
		return 0, 0, err
	}
	p, err := nnPicks(seedX, wildX)
	if err != nil {
		return 0, 0, err
	}
	return len(l), len(p), nil
}

// sqDist is the squared Euclidean distance in the engine's reference
// accumulation order: one accumulator over ascending dimensions.
func sqDist(a, b []float64) float64 {
	sum := 0.0
	for k := range a {
		d := a[k] - b[k]
		sum += d * d
	}
	return sum
}

// rawGreedyLinks is Algorithm 1 over the unweighted rows: ReferenceSearch's
// scans and greedy loop without the max-abs weighting. It backs the
// normalization ablation; the pipeline always weights.
func rawGreedyLinks(security, wild [][]float64) []nearestlink.Link {
	rowMin := func(row []float64, used []bool) (float64, int) {
		best, bestJ := math.Inf(1), -1
		for j, w := range wild {
			if used != nil && used[j] {
				continue
			}
			if d := sqDist(row, w); d < best {
				best, bestJ = d, j
			}
		}
		return best, bestJ
	}
	m := len(security)
	u, v := make([]float64, m), make([]int, m)
	for i, row := range security {
		u[i], v[i] = rowMin(row, nil)
	}
	used := make([]bool, len(wild))
	done := make([]bool, m)
	var links []nearestlink.Link
	for len(links) < min(m, len(wild)) {
		m0 := -1
		for i := range u {
			if !done[i] && (m0 == -1 || u[i] < u[m0]) {
				m0 = i
			}
		}
		if m0 == -1 {
			break
		}
		if n0 := v[m0]; n0 >= 0 && !used[n0] {
			used[n0], done[m0] = true, true
			links = append(links, nearestlink.Link{Security: m0, Wild: n0, Distance: math.Sqrt(u[m0])})
			continue
		}
		// Column collision: rescan the row over the unused columns.
		u[m0], v[m0] = rowMin(security[m0], used)
		if v[m0] < 0 {
			done[m0] = true
		}
	}
	return links
}

// nnPicks is plain 1-nearest-neighbor selection over the weighted rows, the
// contrast of Sec. III-B-3: each security row picks its first-index argmin
// column, and several rows may pick the same one. It returns the distinct
// picks in security-row order.
func nnPicks(security, wild [][]float64) ([]int, error) {
	w, err := nearestlink.Weights(security, wild)
	if err != nil {
		return nil, err
	}
	weigh := func(row []float64) []float64 {
		out := make([]float64, len(row))
		for j, v := range row {
			out[j] = v * w[j]
		}
		return out
	}
	wld := make([][]float64, len(wild))
	for j, row := range wild {
		wld[j] = weigh(row)
	}
	seen := make(map[int]bool)
	var picks []int
	for _, raw := range security {
		row := weigh(raw)
		best, bestJ := math.Inf(1), -1
		for j, c := range wld {
			if d := sqDist(row, c); d < best {
				best, bestJ = d, j
			}
		}
		if bestJ >= 0 && !seen[bestJ] {
			seen[bestJ] = true
			picks = append(picks, bestJ)
		}
	}
	return picks, nil
}

// BenchmarkAblationNormalization contrasts nearest-link hit ratios with and
// without the paper's max-abs feature weighting (Sec. III-B-2).
func BenchmarkAblationNormalization(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weighted, raw, err := normalizationAblation(lab)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("hit ratio with weighting: %.1f%%, without: %.1f%%", 100*weighted, 100*raw)
		}
	}
}

// BenchmarkAblationKNNVsNearestLink contrasts Algorithm 1's one-to-one links
// against plain 1-NN selection (which may pick one wild patch many times —
// the contrast the paper draws in Sec. III-B-3).
func BenchmarkAblationKNNVsNearestLink(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links, picks, err := knnAblation(lab)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("nearest link candidates: %d (one per seed); KNN distinct candidates: %d", links, picks)
		}
	}
}

// TestNearestLinkAblations gates the two nearest-link design choices the
// ablation benchmarks print: weighting must raise the round-1 hit ratio
// over raw distances, and the one-to-one links must reach more distinct
// wild patches than 1-NN selection picks.
func TestNearestLinkAblations(t *testing.T) {
	lab := experiments.NewLab(experiments.SmallScale)
	weighted, raw, err := normalizationAblation(lab)
	if err != nil {
		t.Fatal(err)
	}
	if weighted <= raw {
		t.Errorf("hit ratio with weighting %.3f, without %.3f: want weighting ahead", weighted, raw)
	}
	links, picks, err := knnAblation(lab)
	if err != nil {
		t.Fatal(err)
	}
	if picks >= links {
		t.Errorf("1-NN picks %d distinct patches, nearest link makes %d links: want fewer picks", picks, links)
	}
}

// BenchmarkAblationSearchRange sweeps the unlabeled pool size and reports
// the round-1 hit ratio — the paper's "a larger search range enables a
// higher ratio" observation.
func BenchmarkAblationSearchRange(b *testing.B) {
	lab := sharedBenchLab(b)
	seedX := lab.FeatureRows(lab.NVD)
	full := lab.Items(lab.SetII)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var report []string
		for _, size := range []int{len(full) / 4, len(full) / 2, len(full)} {
			pool := full[:size]
			wildX := make([][]float64, len(pool))
			for j, it := range pool {
				wildX[j] = it.Features
			}
			links, err := nearestlink.Search(context.Background(), seedX, wildX, nil)
			if err != nil {
				b.Fatal(err)
			}
			hits := 0
			for _, l := range links {
				if lc, ok := lab.Lookup(pool[l.Wild].ID); ok && lc.Security {
					hits++
				}
			}
			report = append(report, sprintfRatio(size, hits, len(links)))
		}
		if i == 0 {
			b.Log(strings.Join(report, "; "))
		}
	}
}

func sprintfRatio(size, hits, total int) string {
	return fmt.Sprintf("range=%d ratio=%d%%", size, 100*hits/total)
}

// BenchmarkAblationVariantTemplates contrasts oversampling with all eight
// templates against a flag-family-only subset.
func BenchmarkAblationVariantTemplates(b *testing.B) {
	gen := corpus.NewGenerator(corpus.Config{Seed: 99})
	commits := gen.GenerateNVD(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := &Oversampler{}
		flagOnly := &Oversampler{Variants: []Variant{VariantFlagSet, VariantFlagClear}}
		var nAll, nFlag int
		for _, lc := range commits {
			s1, err := all.Synthesize(lc.Commit.Hash, lc.Commit.Before, lc.Commit.After)
			if err != nil {
				b.Fatal(err)
			}
			s2, err := flagOnly.Synthesize(lc.Commit.Hash, lc.Commit.Before, lc.Commit.After)
			if err != nil {
				b.Fatal(err)
			}
			nAll += len(s1)
			nFlag += len(s2)
		}
		if i == 0 {
			b.Logf("synthetics from 100 patches: all templates=%d, flag-only=%d", nAll, nFlag)
		}
	}
}

// --- Micro-benchmarks ----------------------------------------------------

func benchPatch(b *testing.B) *diff.Patch {
	b.Helper()
	gen := corpus.NewGenerator(corpus.Config{Seed: 4})
	return gen.GenerateNVD(1)[0].Commit.Patch()
}

// BenchmarkFeatureExtraction measures the 60-feature extractor on one
// generated security patch.
func BenchmarkFeatureExtraction(b *testing.B) {
	b.ReportAllocs()
	p := benchPatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = features.Extract(p, 0)
	}
}

// benchExtractStage measures the Build pipeline's per-commit feature
// extraction stage over a wild pool at a given worker count — the
// before/after contrast for the concurrent pipeline (serial = Workers 1).
func benchExtractStage(b *testing.B, workers int) {
	b.Helper()
	gen := corpus.NewGenerator(corpus.Config{Seed: 11})
	pool := gen.GenerateWild(2000)
	// Warm the per-commit diff cache so the benchmark isolates extraction.
	for _, lc := range pool {
		lc.Commit.Patch()
	}
	notify := pipeline.NewNotifier(pipeline.StageExtract, len(pool), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := mapConcurrently(context.Background(), len(pool), workers, notify,
			func(j int) []float64 { return features.Extract(pool[j].Commit.Patch(), 0) })
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(pool) {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkExtractStageSerial is the pre-worker-pool baseline.
func BenchmarkExtractStageSerial(b *testing.B) { benchExtractStage(b, 1) }

// BenchmarkExtractStageParallel runs the same workload on GOMAXPROCS
// workers; compare against BenchmarkExtractStageSerial for the stage
// speedup.
func BenchmarkExtractStageParallel(b *testing.B) { benchExtractStage(b, runtime.GOMAXPROCS(0)) }

// benchBuildPipeline measures the whole Build at a small scale for a worker
// count (crawl + extraction + search + augmentation, no synthesis).
func benchBuildPipeline(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		_, _, err := Build(context.Background(), BuilderConfig{
			Seed: 13, NVDSize: 60, NonSecuritySize: 120,
			WildPools: []int{1500}, RoundsPerPool: []int{2},
			Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSerial runs the end-to-end pipeline single-worker.
func BenchmarkBuildSerial(b *testing.B) { benchBuildPipeline(b, 1) }

// BenchmarkBuildParallel runs the end-to-end pipeline at GOMAXPROCS workers.
func BenchmarkBuildParallel(b *testing.B) { benchBuildPipeline(b, runtime.GOMAXPROCS(0)) }

// BenchmarkTokenSequence measures RNN input construction.
func BenchmarkTokenSequence(b *testing.B) {
	p := benchPatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = features.TokenSequence(p)
	}
}

// BenchmarkLevenshtein measures token-level edit distance on typical hunk
// sizes.
func BenchmarkLevenshtein(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n int) []string {
		out := make([]string, n)
		words := []string{"if", "(", "VAR", ")", "NUM", ";", "FUNC", "&&"}
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return out
	}
	x, y := mk(60), mk(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lev.Distance(x, y)
	}
}

// BenchmarkNearestLinkSearch measures Algorithm 1 on a 120x1200 problem.
func BenchmarkNearestLinkSearch(b *testing.B) {
	lab := sharedBenchLab(b)
	seedX := lab.FeatureRows(lab.NVD)
	pool := lab.Items(lab.SetI)
	wildX := make([][]float64, len(pool))
	for i, it := range pool {
		wildX[i] = it.Features
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nearestlink.Search(context.Background(), seedX, wildX, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNearestLinkRows generates feature-like rows for the large search
// benchmarks, matching the shape of the real 60-dim extractor output: sparse
// non-negative counts, per-dimension scale variation, and a long-tailed
// per-row commit-size factor (big commits have uniformly large counts) — the
// spread the engine's norm bound prunes against in practice.
func benchNearestLinkRows(rng *rand.Rand, n, d int) [][]float64 {
	scale := make([]float64, d)
	for j := range scale {
		scale[j] = 1 + 9*rng.Float64()
	}
	out := make([][]float64, n)
	for i := range out {
		size := math.Exp(1.2 * rng.NormFloat64())
		row := make([]float64, d)
		for j := range row {
			if rng.Float64() < 0.5 {
				continue
			}
			row[j] = float64(int(rng.ExpFloat64() * scale[j] * size))
		}
		out[i] = row
	}
	return out
}

var benchLargeNL struct {
	once       sync.Once
	seed, wild [][]float64
}

func benchLargeNearestLinkInputs() ([][]float64, [][]float64) {
	benchLargeNL.once.Do(func() {
		rng := rand.New(rand.NewSource(17))
		benchLargeNL.seed = benchNearestLinkRows(rng, 1000, 60)
		benchLargeNL.wild = benchNearestLinkRows(rng, 100_000, 60)
	})
	return benchLargeNL.seed, benchLargeNL.wild
}

// BenchmarkNearestLinkSearchLarge measures the engine on a 1k x 100k x 60
// instance — the scale the acceptance criterion targets. Compare against
// BenchmarkNearestLinkReferenceLarge (same inputs, same worker count) for
// the engine-vs-reference speedup.
func BenchmarkNearestLinkSearchLarge(b *testing.B) {
	seedX, wildX := benchLargeNearestLinkInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nearestlink.Search(context.Background(), seedX, wildX, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestLinkReference runs the retained pre-engine implementation
// on the 120x1200 instance of BenchmarkNearestLinkSearch.
func BenchmarkNearestLinkReference(b *testing.B) {
	lab := sharedBenchLab(b)
	seedX := lab.FeatureRows(lab.NVD)
	pool := lab.Items(lab.SetI)
	wildX := make([][]float64, len(pool))
	for i, it := range pool {
		wildX[i] = it.Features
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nearestlink.ReferenceSearch(seedX, wildX, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestLinkReferenceLarge is the pre-engine implementation on the
// 1k x 100k instance — the denominator of the large-search speedup.
func BenchmarkNearestLinkReferenceLarge(b *testing.B) {
	seedX, wildX := benchLargeNearestLinkInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nearestlink.ReferenceSearch(seedX, wildX, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiffCompute measures Myers diff on generated file pairs.
func BenchmarkDiffCompute(b *testing.B) {
	b.ReportAllocs()
	gen := corpus.NewGenerator(corpus.Config{Seed: 6})
	lc := gen.GenerateNVD(1)[0]
	var path, before, after string
	for p, v := range lc.Commit.Before {
		path, before = p, v
	}
	after = lc.Commit.After[path]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = diff.Compute(path, before, after, 3)
	}
}

// BenchmarkPatchParse measures git patch parsing.
func BenchmarkPatchParse(b *testing.B) {
	text := diff.Format(benchPatch(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diff.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOversample measures full variant synthesis for one patch.
func BenchmarkOversample(b *testing.B) {
	b.ReportAllocs()
	gen := corpus.NewGenerator(corpus.Config{Seed: 7})
	lc := gen.SecurityCommitOfPattern(corpus.PatternBoundCheck)
	ov := &Oversampler{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ov.Synthesize(lc.Commit.Hash, lc.Commit.Before, lc.Commit.After); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomForestTrain measures forest training on the small lab's
// labeled data.
func BenchmarkRandomForestTrain(b *testing.B) {
	lab := sharedBenchLab(b)
	ds := &ml.Dataset{}
	for _, lc := range lab.NVD {
		ds.Append(lab.Features(lc), ml.Security, "")
	}
	for _, lc := range lab.NonSec {
		ds.Append(lab.Features(lc), ml.NonSecurity, "")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := &tree.Forest{Trees: 30, Seed: 8}
		if err := rf.Fit(ds.X, ds.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRNNTrainEpoch measures one epoch of RNN training on 200 token
// sequences.
func BenchmarkRNNTrainEpoch(b *testing.B) {
	lab := sharedBenchLab(b)
	var seqs [][]string
	var ys []int
	for _, lc := range lab.NVD[:100] {
		seqs = append(seqs, features.TokenSequence(lc.Commit.Patch()))
		ys = append(ys, ml.Security)
	}
	for _, lc := range lab.NonSec[:100] {
		seqs = append(seqs, features.TokenSequence(lc.Commit.Patch()))
		ys = append(ys, ml.NonSecurity)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnn := &neural.RNN{Epochs: 1, Seed: 9}
		if err := rnn.FitTokens(seqs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusGeneration measures synthetic commit generation.
func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	gen := corpus.NewGenerator(corpus.Config{Seed: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.GenerateWild(10)
	}
}

// BenchmarkCategorize measures the rule-based pattern categorizer.
func BenchmarkCategorize(b *testing.B) {
	p := benchPatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CategorizePatch(p)
	}
}

// BenchmarkAblationOracleNoise measures how annotator mistakes degrade the
// augmentation loop: the verified-security ratio and the label purity of the
// resulting wild dataset under increasing per-annotator error rates (the
// paper relies on three cross-checking experts; this quantifies why).
func BenchmarkAblationOracleNoise(b *testing.B) {
	lab := sharedBenchLab(b)
	seedX := lab.FeatureRows(lab.NVD)
	pool := lab.Items(lab.SetI)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var report []string
		for _, errRate := range []float64{0, 0.1, 0.3} {
			noisy := oracle.New(labLabels(lab, pool), oracle.WithErrorRate(errRate), oracle.WithSeed(7))
			res, err := augment.Run(context.Background(), seedX, pool, noisy, 1, augment.Config{MaxRounds: 1})
			if err != nil {
				b.Fatal(err)
			}
			// Purity: how many oracle-accepted candidates are truly security.
			truePos := 0
			for _, id := range res.SecurityIDs {
				if lc, ok := lab.Lookup(id); ok && lc.Security {
					truePos++
				}
			}
			purity := 0.0
			if len(res.SecurityIDs) > 0 {
				purity = float64(truePos) / float64(len(res.SecurityIDs))
			}
			report = append(report, fmt.Sprintf("err=%.1f ratio=%.0f%% purity=%.0f%%",
				errRate, 100*res.Rounds[0].Ratio, 100*purity))
		}
		if i == 0 {
			b.Log(strings.Join(report, "; "))
		}
	}
}

// labLabels extracts ground-truth labels for a pool from the lab.
func labLabels(lab *experiments.Lab, pool []augment.Item) map[string]bool {
	out := make(map[string]bool, len(pool))
	for _, it := range pool {
		if lc, ok := lab.Lookup(it.ID); ok {
			out[it.ID] = lc.Security
		}
	}
	return out
}
