// Command patchdb-stats reports composition statistics for a PatchDB
// dataset JSON file produced by patchdb-build: component sizes, the Table V
// pattern distribution, and the agreement between stored labels and the
// rule-based categorizer.
//
// Usage:
//
//	patchdb-stats -in patchdb.json
//	patchdb-stats -in patchdb.json -patterns -telemetry-out report.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"patchdb"
	"patchdb/internal/pipeline"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "patchdb-stats:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "patchdb.json", "dataset JSON path")
	patterns := flag.Bool("patterns", false, "also mine and print fix patterns (Table VII style)")
	minSupport := flag.Int("min-support", 5, "minimum support for mined fix patterns")
	telOut := flag.String("telemetry-out", "", "write a RunReport JSON with stage timings to this path (empty = disabled)")
	flag.Parse()

	hub := patchdb.NewTelemetryHub()
	metrics := pipeline.NewMetrics(hub.Registry)
	// phase opens the span on hub that times one phase; stop records the
	// span's reading and the phase's item count.
	phase := func(name string) (stop func(items int)) {
		_, span := hub.Tracer.Start(context.Background(), "stats."+name)
		return func(items int) { metrics.Observe(pipeline.Stage(name), span.End(), items) }
	}

	stop := phase("load")
	ds, err := patchdb.LoadDatasetFile(*in)
	if err != nil {
		return err
	}
	stats := ds.Stats()
	stop(stats.NVD + stats.Wild + stats.NonSecurity + stats.Synthetic)
	fmt.Printf("dataset %s\n", *in)
	fmt.Printf("  NVD-based security patches:  %d\n", stats.NVD)
	fmt.Printf("  wild-based security patches: %d\n", stats.Wild)
	fmt.Printf("  cleaned non-security:        %d\n", stats.NonSecurity)
	fmt.Printf("  synthetic:                   %d\n\n", stats.Synthetic)

	sec := ds.SecurityPatches()
	fmt.Println("security patch distribution (stored labels):")
	dist := ds.Distribution()
	for p := patchdb.Pattern(1); int(p) <= patchdb.NumPatterns; p++ {
		n := dist[p]
		pct := 0.0
		if len(sec) > 0 {
			pct = 100 * float64(n) / float64(len(sec))
		}
		fmt.Printf("  %2d %-40s %5.1f%%  %s\n", int(p), p.String(), pct,
			strings.Repeat("#", int(pct/2)))
	}

	// Cross-check with the rule-based categorizer.
	stop = phase("categorize")
	agree, parsed := 0, 0
	for _, r := range sec {
		p, err := r.Patch()
		if err != nil {
			continue
		}
		parsed++
		if patchdb.CategorizePatch(p) == r.Pattern {
			agree++
		}
	}
	stop(parsed)
	if parsed > 0 {
		fmt.Printf("\nrule-based categorizer agreement with labels: %.1f%% (%d/%d)\n",
			100*float64(agree)/float64(parsed), agree, parsed)
	}

	if *patterns {
		stop = phase("mine-patterns")
		templates, err := patchdb.MineDatasetFixPatterns(ds,
			patchdb.FixPatternMiner{MinSupport: *minSupport, TopK: 3})
		if err != nil {
			return fmt.Errorf("mine fix patterns: %w", err)
		}
		stop(len(templates))
		fmt.Println()
		fmt.Println(patchdb.RenderFixPatterns(templates))
	}

	if *telOut != "" {
		rr := patchdb.NewRunReport("patchdb-stats", hub)
		rr.Stages = pipeline.StageReports(metrics.Snapshot())
		if err := rr.WriteFile(*telOut); err != nil {
			return err
		}
		fmt.Println()
		fmt.Println("stage timings:")
		fmt.Println(patchdb.FormatStages(metrics.Snapshot()))
		fmt.Println("wrote run report", *telOut)
	}
	return nil
}
