package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeRun runs a whole smoke-shape run in this process (parts run
// in-process instead of as child processes).
func smokeRun(t *testing.T, workload string, trace bool, seed int64) *result {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 0.4, trace: trace, smoke: true,
		procs: 2, workDir: t.TempDir()}
	res, rec, err := run(cfg, runPart)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		var failures []string
		for _, p := range rec.Parts {
			failures = append(failures, p.Failures...)
		}
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d: %v",
			workload, trace, res.Correct, res.Attempted, res.Failed, failures)
	}
	if rec.GoVersion == "" || rec.GOMAXPROCS < 1 || rec.NumCPU < 1 || rec.Seed != seed ||
		len(rec.Shape) == 0 || rec.Ops < 1 || len(rec.Parts) != 2 {
		t.Errorf("%s: incomplete provenance: %+v", workload, rec)
	}
	if trace {
		for _, p := range rec.Parts {
			if _, err := os.Stat(p.TraceFile); err != nil {
				t.Errorf("%s: trace file: %v", workload, err)
			}
		}
	}
	return res
}

// TestSmoke runs every workload, untraced and traced, through every check,
// and requires the contract's metric sets.
func TestSmoke(t *testing.T) {
	endToEnd := []string{"setup_s", "p50_ms", "p99_ms", "ops_per_s", "alloc_mb", "peak_rss_mb"}
	// Layers each workload must report as busy (non-zero).
	busy := map[string][]string{
		"build": {"features.busy_s", "nvd.busy_s", "nearestlink.busy_s", "augment.self_s",
			"oversample.busy_s", "build.other_s", "nearestlink.distance_evals", "nvd.fetches"},
		"link": {"features.busy_s", "nearestlink.busy_s", "augment.self_s", "augment.verifications",
			"nearestlink.distance_evals", "nearestlink.heap_pops"},
		"train": {"features.busy_s", "linear.smo_fit_s", "linear.fit_s", "tree.fit_s", "bayes.fit_s",
			"baselines.predict_s", "neural.fit_s", "neural.predict_s", "neural.steps",
			"neural.us_per_step", "neural.alloc_mb", "oversample.busy_s", "oversample.variants"},
		"serve": {"store.query_us", "store.handler_us", "http.self_us", "store.reload_ms", "runtime.gc_s"},
	}
	for _, w := range []string{"build", "link", "train", "serve"} {
		t.Run(w, func(t *testing.T) {
			res := smokeRun(t, w, false, 1)
			for _, name := range endToEnd {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want > 0", name, m)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}

			res = smokeRun(t, w, true, 1)
			for _, l := range perLayerMetrics {
				if _, ok := res.Metrics[l.name]; !ok {
					t.Errorf("per-layer metric %s missing", l.name)
				}
			}
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
			}
			for _, name := range busy[w] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("per-layer metric %s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// TestExactRepeat checks that the counts a later change may rest a claim
// on repeat exactly between two runs at one seed.
func TestExactRepeat(t *testing.T) {
	counts := map[string][]string{
		"link": {"nearestlink.distance_evals", "nearestlink.norm_pruned", "nearestlink.early_exited",
			"nearestlink.pruned_fraction", "nearestlink.heap_pops", "nearestlink.second_best_hits",
			"nearestlink.rescans", "nearestlink.rescan_ratio", "augment.hit_ratio", "augment.verifications"},
		"build": {"nearestlink.distance_evals", "nearestlink.rescans", "augment.hit_ratio",
			"oversample.variants", "nvd.fetches", "features.items"},
		"train": {"baselines.consensus", "oversample.variants", "neural.steps"},
	}
	for w, names := range counts {
		t.Run(w, func(t *testing.T) {
			a, b := smokeRun(t, w, true, 7), smokeRun(t, w, true, 7)
			for _, name := range names {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestPercentile pins the nearest-rank definition the metrics use.
func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Errorf("p99 of 5 samples = %v, want the maximum", got)
	}
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if got := percentile(many, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

// TestTracerSelfTime checks self time = duration minus the children's.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.setOp(1)
	root := tr.begin("op", 0)
	child := tr.derived("augment", root, 0)
	tr.derived("nearestlink", child, 0)
	tr.end(root)
	tr.spans[root-1].Start, tr.spans[root-1].End = 0, 100
	tr.spans[child-1].Start, tr.spans[child-1].End = 0, 60
	tr.spans[child].Start, tr.spans[child].End = 0, 45
	lt := tr.totals(func(op int) bool { return op == 1 })
	for name, want := range map[string]int64{"op": 40, "augment": 15, "nearestlink": 45} {
		if got := int64(lt.self[name]); got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
	path, err := tr.write(t.TempDir(), "spans.json")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "spans.json" {
		t.Errorf("trace written to %s", path)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	res := smokeRun(t, "link", false, 1)
	if len(spec.EndToEnd) != len(res.Metrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(res.Metrics))
	}
	for _, m := range spec.EndToEnd {
		if got := res.Metrics[m.Name]; got.Unit != m.Unit {
			t.Errorf("end-to-end %s: printed unit %q, BENCHMARK.json %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if l := perLayerMetrics[i]; l.name != m.Name || l.unit != m.Unit {
			t.Errorf("per-layer %d: printed %s (%s), BENCHMARK.json %s (%s)", i, l.name, l.unit, m.Name, m.Unit)
		}
	}
}
