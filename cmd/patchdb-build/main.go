// Command patchdb-build runs the end-to-end PatchDB construction pipeline —
// NVD crawl, nearest-link augmentation with simulated verification, and
// source-level oversampling — and writes the assembled dataset as JSON.
//
// Usage:
//
//	patchdb-build -out patchdb.json -nvd 400 -pools 8000,16000,16000 -synthetic 4
//	patchdb-build -workers 16 -progress          # parallel run with a live stage view
//	patchdb-build -feed-noise=-1 -ratio-threshold=-1  # disable noise and early exit
//	patchdb-build -fault-rate 0.3 -max-retries 3 # chaos run: inject crawl faults
//	patchdb-build -checkpoint-dir ckpt           # journal every stage boundary
//	patchdb-build -checkpoint-dir ckpt -resume   # resume a killed build from its journal
//	patchdb-build -telemetry-out patchdb-run-report.json  # write the RunReport artifact
//	patchdb-build -serve-metrics 127.0.0.1:9090  # scrape /metrics + pprof during the build
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"patchdb"
	"patchdb/internal/pipeline"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "patchdb-build:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out       = flag.String("out", "patchdb.json", "output dataset path")
		seed      = flag.Int64("seed", 1, "random seed")
		nvdSize   = flag.Int("nvd", 400, "NVD-indexed security patches")
		nonSec    = flag.Int("nonsec", 800, "initial cleaned non-security patches")
		pools     = flag.String("pools", "8000,16000,16000", "comma-separated wild pool sizes")
		rounds    = flag.String("rounds", "3,1,1", "comma-separated rounds per pool")
		synthetic = flag.Int("synthetic", 4, "synthetic variants per natural patch (0 disables)")
		workers   = flag.Int("workers", 0, "worker-pool size for crawl/extraction/search (0 = GOMAXPROCS)")
		noise     = flag.Float64("feed-noise", 0, "CVE entries without patch links, as a fraction of -nvd (0 = default 0.1, negative disables)")
		threshold = flag.Float64("ratio-threshold", 0, "augmentation early-exit ratio (0 = default 0.01, negative disables)")
		progress  = flag.Bool("progress", false, "render live per-stage progress on stderr")
		faultRate = flag.Float64("fault-rate", 0, "inject transient crawl faults at this per-request probability (0 = none)")
		retries   = flag.Int("max-retries", 0, "per-download retry budget after the first attempt (0 = default 3, negative disables)")
		failRatio = flag.Float64("max-failure-ratio", 0, "quarantined-download ratio that fails the build (0 = default 0.25, negative = never fail)")
		telOut    = flag.String("telemetry-out", "", "write the end-of-run RunReport JSON to this path (empty = disabled; conventionally "+patchdb.DefaultRunReportPath+")")
		traceOut  = flag.String("trace-out", "", "write the build's span tree as Chrome trace-event JSON to this path, viewable in chrome://tracing or Perfetto (empty = disabled)")
		telServe  = flag.String("serve-metrics", "", "serve /metrics and /debug/pprof on this address for the duration of the build (empty = disabled)")
		ckptDir   = flag.String("checkpoint-dir", "", "journal build state at every stage boundary into this directory (empty = disabled)")
		resume    = flag.Bool("resume", false, "resume from the journal in -checkpoint-dir, skipping completed stages (refuses a journal from a different config)")
	)
	flag.Parse()

	poolSizes, err := parseInts(*pools)
	if err != nil {
		return fmt.Errorf("parse -pools: %w", err)
	}
	roundCounts, err := parseInts(*rounds)
	if err != nil {
		return fmt.Errorf("parse -rounds: %w", err)
	}

	cfg := patchdb.BuilderConfig{
		Seed:                 *seed,
		NVDSize:              *nvdSize,
		NonSecuritySize:      *nonSec,
		WildPools:            poolSizes,
		RoundsPerPool:        roundCounts,
		SyntheticPerPatch:    *synthetic,
		FeedNoise:            *noise,
		RatioThreshold:       *threshold,
		Workers:              *workers,
		FaultRate:            *faultRate,
		MaxRetries:           *retries,
		MaxCrawlFailureRatio: *failRatio,
		CheckpointDir:        *ckptDir,
		Resume:               *resume,
	}
	if *progress {
		cfg.Progress = pipeline.Render(os.Stderr)
	}
	hub := patchdb.NewTelemetryHub()
	cfg.Telemetry = hub
	cfg.TelemetryOut = *telOut
	if *telServe != "" {
		srv, err := patchdb.ServeTelemetry(*telServe, hub)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving %s/metrics and %s/debug/pprof/\n", srv.URL, srv.URL)
	}

	// Ctrl-C cancels the pipeline cleanly (Build checks the context between
	// rounds, records, and fetches); a second interrupt kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ds, report, err := patchdb.Build(ctx, cfg)
	if err != nil {
		return err
	}

	if report.ResumedFrom != "" {
		fmt.Printf("resumed from checkpoint stage %q\n", report.ResumedFrom)
	}
	fmt.Printf("crawl: %d entries, %d with patch refs, %d downloaded, %d errors\n",
		report.Crawl.Entries, report.Crawl.WithPatchRefs, report.Crawl.Downloaded, report.Crawl.Errors)
	if report.Crawl.Retries > 0 || report.Crawl.Errors > 0 {
		fmt.Printf("crawl resilience: %d retries, %d breaker trips\n",
			report.Crawl.Retries, report.Crawl.BreakerTrips)
	}
	for _, q := range report.Crawl.Quarantine {
		fmt.Printf("  quarantined: %s %s after %d attempts: %s\n", q.CVE, q.URL, q.Attempts, q.LastError)
	}
	if report.Degraded {
		fmt.Println("warning: degraded build — dataset is complete except for quarantined patches")
	}
	for _, r := range report.Rounds {
		fmt.Println(r)
	}
	if report.Search.Searches > 0 {
		fmt.Println("nearest-link engine:", report.Search)
	}
	stats := ds.Stats()
	fmt.Printf("dataset: nvd=%d wild=%d non-security=%d synthetic=%d (verifications: %d)\n",
		stats.NVD, stats.Wild, stats.NonSecurity, stats.Synthetic, report.HumanVerifications)
	fmt.Println("stage timings:")
	fmt.Println(patchdb.FormatStages(report.Stages))

	if *telOut != "" {
		fmt.Println("wrote run report", *telOut)
	}
	if *traceOut != "" {
		if err := hub.Tracer.WriteChromeTraceFile(*traceOut); err != nil {
			return err
		}
		fmt.Println("wrote chrome trace", *traceOut)
	}

	if err := ds.SaveJSON(*out); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

func parseInts(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
