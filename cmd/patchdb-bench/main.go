// Command patchdb-bench reproduces every data-bearing table and figure of
// the PatchDB paper and prints them in the paper's layout, plus a BUILD
// experiment that times the concurrent end-to-end construction pipeline.
//
// Usage:
//
//	patchdb-bench                 # all experiments at the default scale
//	patchdb-bench -scale small    # fast run
//	patchdb-bench -scale paper    # the paper's dataset sizes (slow)
//	patchdb-bench -only II,III    # a subset of experiments
//	patchdb-bench -only BUILD     # end-to-end pipeline with stage timings
//	patchdb-bench -only CHAOS     # crawl resilience under injected faults
//	patchdb-bench -only NEARESTLINK  # search engine sweep -> BENCH_nearestlink.json
//	patchdb-bench -only NEARESTLINK -smoke  # tiny fully-verified sweep, no artifact (CI gate)
//	patchdb-bench -only BUILD -serve-metrics 127.0.0.1:9090  # scrape /metrics live
//	patchdb-bench -only BUILD -telemetry-out report.json     # write the RunReport
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"patchdb"
	"patchdb/internal/experiments"
	"patchdb/internal/pipeline"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "patchdb-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scaleName = flag.String("scale", "default", "experiment scale: small, default, or paper")
		only      = flag.String("only", "", "comma-separated experiment ids (II,III,IV,V,VI,VII,F6,BUILD,CHAOS,NEARESTLINK); empty = all")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "BUILD/CHAOS/NEARESTLINK experiment worker-pool size (0 = GOMAXPROCS; NEARESTLINK sweeps 1 and GOMAXPROCS when 0)")
		smoke     = flag.Bool("smoke", false, "NEARESTLINK only: run a tiny fully-verified shape and skip the artifact write (CI gate)")
		telOut    = flag.String("telemetry-out", "", "write the BUILD experiment's RunReport JSON to this path (empty = disabled)")
		telServe  = flag.String("serve-metrics", "", "serve /metrics and /debug/pprof on this address for the whole bench run (empty = disabled)")
		traceOut  = flag.String("trace-out", "", "write the run's span tree as Chrome trace-event JSON to this path, viewable in chrome://tracing or Perfetto (empty = disabled)")
	)
	flag.Parse()

	hub := patchdb.NewTelemetryHub()
	if *telServe != "" {
		srv, err := patchdb.ServeTelemetry(*telServe, hub)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving %s/metrics and %s/debug/pprof/\n", srv.URL, srv.URL)
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale
	case "default":
		scale = experiments.DefaultScale
	case "paper":
		scale = experiments.PaperScale
	default:
		return fmt.Errorf("unknown scale %q (want small, default, or paper)", *scaleName)
	}
	scale.Seed = *seed

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	fmt.Printf("PatchDB experiment harness — scale %s (seed %d)\n\n", scale.Name, scale.Seed)
	// The run, the corpus and every experiment are timed by the spans that
	// trace them on hub, so -trace-out shows one span per table.
	ctx, runSpan := hub.Tracer.Start(context.Background(), "bench")
	_, corpusSpan := hub.Tracer.Start(ctx, "bench.corpus")
	lab := experiments.NewLab(scale)
	fmt.Printf("corpus: %d NVD + %d non-security + %d/%d/%d wild commits (%.1fs)\n\n",
		len(lab.NVD), len(lab.NonSec), len(lab.SetI), len(lab.SetII), len(lab.SetIII),
		corpusSpan.End().Seconds())

	type experiment struct {
		id  string
		run func(context.Context) (fmt.Stringer, error)
	}
	all := []experiment{
		{"II", func(context.Context) (fmt.Stringer, error) { return lab.RunTableII() }},
		{"III", func(context.Context) (fmt.Stringer, error) { return lab.RunTableIII() }},
		{"IV", func(context.Context) (fmt.Stringer, error) { return lab.RunTableIV() }},
		{"V", func(context.Context) (fmt.Stringer, error) { return lab.RunTableV() }},
		{"F6", func(context.Context) (fmt.Stringer, error) { return lab.RunFigure6() }},
		{"VI", func(context.Context) (fmt.Stringer, error) { return lab.RunTableVI() }},
		{"VII", func(context.Context) (fmt.Stringer, error) { return lab.RunTableVII() }},
		{"BUILD", func(ctx context.Context) (fmt.Stringer, error) { return runBuild(ctx, scale, *workers, hub, *telOut) }},
		{"CHAOS", func(context.Context) (fmt.Stringer, error) { return runChaos(scale.NVDSeed, scale.Seed, *workers) }},
		{"NEARESTLINK", func(context.Context) (fmt.Stringer, error) { return runNearestLink(scale, *workers, *smoke) }},
	}
	for _, e := range all {
		if !selected(e.id) {
			continue
		}
		expCtx, span := hub.Tracer.Start(ctx, "bench."+e.id)
		res, err := e.run(expCtx)
		took := span.End()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		fmt.Println(res)
		fmt.Printf("[%s took %.1fs]\n\n", e.id, took.Seconds())
	}
	fmt.Printf("total: %.1fs\n", runSpan.End().Seconds())
	if *traceOut != "" {
		if err := hub.Tracer.WriteChromeTraceFile(*traceOut); err != nil {
			return err
		}
		fmt.Println("wrote chrome trace", *traceOut)
	}
	return nil
}

// buildResult renders the BUILD experiment: the Table II-style round rows
// plus the per-stage pipeline accounting.
type buildResult struct {
	stats  patchdb.Stats
	report *patchdb.BuildReport
}

func (b buildResult) String() string {
	var sb strings.Builder
	sb.WriteString("BUILD: end-to-end construction pipeline\n")
	for _, r := range b.report.Rounds {
		fmt.Fprintf(&sb, "  %s (search %s)\n", r, r.Search.Duration.Round(time.Millisecond))
	}
	if b.report.Search.Searches > 0 {
		fmt.Fprintf(&sb, "  nearest-link engine: %s\n", b.report.Search)
	}
	fmt.Fprintf(&sb, "  dataset: nvd=%d wild=%d non-security=%d synthetic=%d (verifications: %d)\n",
		b.stats.NVD, b.stats.Wild, b.stats.NonSecurity, b.stats.Synthetic,
		b.report.HumanVerifications)
	sb.WriteString("  stage timings:\n")
	for _, line := range strings.Split(patchdb.FormatStages(b.report.Stages), "\n") {
		sb.WriteString("    " + line + "\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}

// runBuild executes the full concurrent pipeline at the scale's sizes,
// rendering live per-stage progress on stderr. The build publishes into hub
// (so a -serve-metrics endpoint sees it live), parents its spans under the
// span in ctx, and, when telemetryOut is non-empty, writes its RunReport
// artifact there.
func runBuild(ctx context.Context, scale experiments.Scale, workers int, hub *patchdb.TelemetryHub, telemetryOut string) (fmt.Stringer, error) {
	ds, report, err := patchdb.Build(ctx, patchdb.BuilderConfig{
		Seed:            scale.Seed,
		NVDSize:         scale.NVDSeed,
		NonSecuritySize: scale.NonSecSeed,
		WildPools:       []int{scale.SetI, scale.SetII, scale.SetIII},
		RoundsPerPool:   []int{3, 1, 1},
		Workers:         workers,
		Telemetry:       hub,
		TelemetryOut:    telemetryOut,
		Progress:        pipeline.Render(os.Stderr),
	})
	if err != nil {
		return nil, err
	}
	if telemetryOut != "" {
		fmt.Fprintln(os.Stderr, "wrote run report", telemetryOut)
	}
	return buildResult{stats: ds.Stats(), report: report}, nil
}
