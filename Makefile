GO ?= go

.PHONY: build fmt test vet vet-perfbench lint race fuzz-smoke bench bench-nearestlink bench-smoke bench-ledger verify verify-par verify-link verify-synth verify-neural verify-train verify-chaos verify-telemetry verify-serve verify-resume verify-obs ci clean

build:
	$(GO) build ./...

# fmt fails when any Go file in the tree, testdata included, is not
# gofmt-formatted, and lists the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# vet is the stock static-analysis pass; its stricter analyzers that matter
# here (-copylocks, -loopclosure) are on by default in go vet.
vet:
	$(GO) vet ./...

# vet-perfbench vets the benchmark module (perfbench/go.mod), which builds
# against this checkout: removing or renaming a name it uses fails here.
vet-perfbench:
	cd perfbench && $(GO) vet ./...

# lint runs patchdb's custom analyzer suite (see internal/analysis and
# cmd/patchdb-lint): determinism (no wall clocks / global rand — direct or
# transitive via call-graph facts — and no ordered map iteration in the
# deterministic build packages), ctxloop (worker loops honor ctx
# cancellation), errcanon (errors.Is + %w for canonical errors),
# telemetrysafe (nil-guarded *telemetry.Hub field access), atomicwrite
# (artifact files written via internal/atomicio, never direct os writes),
# logcanon (structured logging in server/pipeline packages), lockdiscipline
# (no mutex copies, Lock pairs with Unlock on all paths, no lock held across
# a blocking channel op), goroleak (goroutines tie their exit to a
# context/WaitGroup/channel), and closeleak (files, response bodies, and
# snapshot handles closed on every path). Packages are analyzed concurrently
# and results cached under .lintcache/ — a warm run re-checks nothing (use
# -no-cache or `rm -rf .lintcache` to force). Suppress an intentional
# finding with `//lint:ignore <check> <reason>`.
lint:
	$(GO) run ./cmd/patchdb-lint ./...

# Race instrumentation slows the model-training tests ~10x, so the tier
# needs more than go test's default 10m package timeout.
race:
	$(GO) test -race -timeout 45m ./...

# fuzz-smoke runs each fuzz target of the decoders of outside bytes for a
# fixed 10s, one target at a time (go test fuzzes one target per run),
# starting from its seed corpus (f.Add seeds plus testdata/fuzz): unified
# diffs (diff FuzzParse), C source structure (cast FuzzParse), the diff
# compute/apply round trip against the reference Myers (FuzzComputeApply),
# the C lexer (FuzzLex), dataset JSON (FuzzLoadDataset), the store's
# /v1/patches query string, checked against a brute-force model of the scan
# (FuzzQuery), and the checkpoint journal's MANIFEST.json, which must never
# get a file outside the journal directory deleted or read
# (FuzzOpenManifest), and the NVD feed and Retry-After headers the crawler
# reads, which must yield only commitURLRe downloads and CrawlStats counts
# that add up (FuzzCrawlFeed), and nearest-link feature rows from raw
# float64 bits, whose links must match ReferenceSearch at workers 1 and 2
# unless both return a canonical error (FuzzSearch). A crasher fails the
# target and is saved under its testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/diff/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/cast/
	$(GO) test -run '^$$' -fuzz '^FuzzComputeApply$$' -fuzztime 10s ./internal/diff/
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime 10s ./internal/ctoken/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadDataset$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzQuery$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenManifest$$' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz '^FuzzCrawlFeed$$' -fuzztime 10s ./internal/nvd/
	$(GO) test -run '^$$' -fuzz '^FuzzSearch$$' -fuzztime 10s ./internal/core/nearestlink/

bench:
	$(GO) test -run XXX -bench 'BenchmarkExtractStage|BenchmarkBuild' -benchtime 3x .

# bench-nearestlink sweeps the nearest-link engine up to 2k seeds x 200k
# wild commits and writes BENCH_nearestlink.json (median ns/op of 5 runs
# with their range, distance evals, pruned fraction, rescans, reference
# speedup) — the perf trajectory for the hottest kernel in the repo. The
# host drifts between sweeps by more than a row's 5 repeats show, so a
# committed row compares with an earlier commit's row only when the
# parent's sweep is re-run beside it, alternating the two.
bench-nearestlink:
	$(GO) run ./cmd/patchdb-bench -only NEARESTLINK

# bench-smoke is the CI-gate form of the engine sweep: one tiny shape
# (50 seeds x 2000 wild commits, 60 dims) across worker counts, every link of
# every run compared bit-for-bit against the reference implementation plus a
# brute-force spot-check of all seeds. Seconds of wall-clock, no artifact
# write — it gates correctness, not throughput.
bench-smoke:
	$(GO) run ./cmd/patchdb-bench -only NEARESTLINK -smoke

# bench-ledger runs the end-to-end benchmark (perfbench, see BENCHMARK.json)
# once per workload at seed 1 for 15s, untraced, and writes each run's two
# output lines (the record line with the machine's provenance, then the
# result line) to BENCH_perfbench.json, one JSON object per line. Each run
# is 15s of ops plus three set-ups, about 25s on a 2-vCPU machine. Not part
# of ci: the numbers depend on the machine, not on correctness.
bench-ledger:
	@rm -f BENCH_perfbench.json.tmp
	@for w in build link train serve; do \
		echo "==> perfbench $$w" >&2; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 15 --trace 0 >>BENCH_perfbench.json.tmp || { rm -f BENCH_perfbench.json.tmp; exit 1; }; \
	done
	@mv BENCH_perfbench.json.tmp BENCH_perfbench.json

# verify-par runs the shared parallel loop's tests (every index once, worker
# ids, cancellation) under the race detector.
verify-par:
	$(GO) test -race -count=1 ./internal/par/

# verify-link runs the nearest-link engine and augmentation suites under
# the race detector: the engine's parallel set-up and scan, the rounds that
# keep one engine and its pooled buffers across an augmentation run, and
# several runs at once (~30s).
verify-link:
	$(GO) test -race -count=1 ./internal/core/nearestlink/ ./internal/core/augment/

# verify-synth runs the oversampling and corpus suites under the race
# detector: batch synthesis on parallel windows with its in-order shuffles
# (the same variants at workers 1, 2 and 8 as a serial loop), cancellation,
# and the golden digest of the generated corpus.
verify-synth:
	$(GO) test -race -count=1 ./internal/core/oversample/ ./internal/corpus/

# verify-neural runs the RNN suite under the race detector: concurrent
# ProbaTokens calls on a warm and on a cold inference memo, beside the
# bit-identity tests against the reference network (~20s).
verify-neural:
	$(GO) test -race -count=1 ./internal/ml/neural/

# verify-train runs the model suites and the baselines under the race
# detector (the SMO support-vector list against its reference, the
# ensemble fits and pool scoring on parallel items, ArgmaxProba's scoring),
# then the worker-invariance test of Tables IV and VI, whose RNN fits run
# as parallel items: the same metrics bit for bit at GOMAXPROCS 1 and 4.
# That test trains RNNs for tens of seconds, so it runs without -race.
verify-train:
	$(GO) test -race -count=1 ./internal/ml/... ./internal/core/baselines/
	$(GO) test -count=1 -run '^TestWorkerInvariance$$' ./internal/experiments/

# verify-chaos runs the fault-injection suite under the race detector: the
# injected fault classes, the retry/breaker machinery, and the end-to-end
# chaos tests of the crawler and builder.
verify-chaos:
	$(GO) test -race -count=1 ./internal/faults/ ./internal/retry/
	$(GO) test -race -count=1 -run 'Chaos|Fault|PatchTooLarge|Serve' ./internal/nvd/ .

# verify-telemetry runs the observability suites under the race detector:
# the metrics registry / tracer / exporters, the stage-metrics adapter, the
# crawler's counters and spans, and the root package's build-telemetry
# tests (run report, families and span names, stage times), ~20s.
verify-telemetry:
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/pipeline/ ./internal/nvd/ .

# verify-serve runs the serving-layer suite under the race detector: the
# snapshot-swap isolation test (readers during reload see old-or-new, never
# a mix), List/Get/CVE against a brute-force model, cursor pagination, the
# HTTP handlers, and concurrent loopback clients during reloads.
verify-serve:
	$(GO) test -race -count=1 ./internal/store/

# verify-resume runs the crash-safety suite under the race detector: the
# checkpoint journal and atomic-write primitives, the crawled-patch
# round-trip, and the kill-and-resume chaos harness (every stage boundary x
# worker counts 1/2/8, both fault placements, cross-worker resume — resumed
# output must be bit-identical to an uninterrupted build).
verify-resume:
	$(GO) test -race -count=1 ./internal/atomicio/ ./internal/checkpoint/ ./internal/experiments/resumebench/

# verify-obs runs the observability-correlation suite under the race
# detector: structured-logging determinism, SLO burn-rate verdicts (window
# edges, zero traffic, worker invariance), exposition goldens with
# exemplars, Chrome trace export, and the end-to-end request-ID correlation
# test (one slow request -> header + log + span + exemplar, one trace ID).
verify-obs:
	$(GO) test -race -count=1 -run 'Log|SLO|Exemplar|Exposition|OpenMetrics|Prom|RequestID|Correlation|ChromeTrace|Debug|Healthz|Slow' ./internal/telemetry/ ./internal/store/

# verify is the full pre-merge tier: verify = vet + lint + chaos +
# telemetry + obs + serve + resume + race — stock and custom static
# analysis, the fault-injection, telemetry, observability-correlation,
# serving, and crash-safety suites, and the race-enabled test suite (which
# subsumes the plain test run).
verify: vet lint verify-chaos verify-telemetry verify-obs verify-serve verify-resume race

# ci is the merge gate: scripts/ci.sh, the one sequence the GitHub workflow
# runs too — build, the gofmt check, both static-analysis tiers (and vet of
# the benchmark module, and the lint suite's warm-cache check), the plain
# test run, the race-enabled parallel-loop, observability-correlation,
# build-telemetry, crash-safety, nearest-link engine, synthesis, RNN and
# training suites, the fully-verified engine smoke sweep, and the bounded
# fuzz run of the decoders.
ci:
	GO=$(GO) sh scripts/ci.sh

clean:
	$(GO) clean ./...
