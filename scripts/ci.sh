#!/bin/sh
# scripts/ci.sh — the merge gate as one script: .github/workflows/ci.yml
# and `make ci` both run it, so there is one sequence to keep. It runs the
# build, the gofmt check, stock vet (of the program and of the perfbench
# benchmark module), the custom patchdb-lint suite cold and warm, the test
# run, the race-enabled parallel-loop, observability-correlation, build
# telemetry and crash-safety suites, the race-enabled nearest-link engine,
# synthesis, RNN, training and retry/fault-injection suites, the
# worker-invariance test of the parallel table fits, the fully-verified
# nearest-link engine smoke sweep, and the bounded fuzz run of the decoders
# and of the nearest-link search (every weighted input links min(M, N) rows
# within 2·sqrt(d), bit-identical to ReferenceSearch, or returns its
# canonical error). Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

GO="${GO:-go}"

echo "==> build"
"$GO" build ./...

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "ci: gofmt -l lists unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> vet"
"$GO" vet ./...

echo "==> vet (perfbench module)"
(cd perfbench && "$GO" vet ./...)

# The lint suite runs twice against one cache directory: the cold run also
# writes the SARIF log CI uploads, the warm run proves the incremental
# driver works — at least 90% of the units must come from the cache, zero
# packages may be type-checked from source, and the warm run must be faster.
LINTTMP="$(mktemp -d)"
trap 'rm -rf "$LINTTMP"' EXIT

echo "==> lint (cold: determinism ctxloop errcanon telemetrysafe atomicwrite logcanon lockdiscipline goroleak closeleak)"
"$GO" build -o "$LINTTMP/patchdb-lint" ./cmd/patchdb-lint
t0=$(date +%s)
"$LINTTMP/patchdb-lint" -cache-dir "$LINTTMP/cache" -stats -sarif lint.sarif ./... 2>"$LINTTMP/cold.stats"
t1=$(date +%s)
cat "$LINTTMP/cold.stats"

echo "==> lint (warm: incremental cache re-run)"
"$LINTTMP/patchdb-lint" -cache-dir "$LINTTMP/cache" -stats ./... 2>"$LINTTMP/warm.stats"
t2=$(date +%s)
cat "$LINTTMP/warm.stats"

units=$(sed -n 's/.*units=\([0-9]*\).*/\1/p' "$LINTTMP/warm.stats")
hits=$(sed -n 's/.*cache_hits=\([0-9]*\).*/\1/p' "$LINTTMP/warm.stats")
loads=$(sed -n 's/.*source_loads=\([0-9]*\).*/\1/p' "$LINTTMP/warm.stats")
if [ -z "$units" ] || [ -z "$hits" ] || [ -z "$loads" ]; then
    echo "ci: could not parse lint -stats output" >&2
    exit 1
fi
if [ $((hits * 100)) -lt $((units * 90)) ]; then
    echo "ci: warm lint run hit the cache for $hits/$units units, want >= 90%" >&2
    exit 1
fi
if [ "$loads" -ne 0 ]; then
    echo "ci: warm lint run type-checked $loads packages from source, want 0" >&2
    exit 1
fi
if [ $((t2 - t1)) -ge $((t1 - t0)) ] && [ $((t1 - t0)) -gt 1 ]; then
    echo "ci: warm lint run ($((t2 - t1))s) not faster than cold ($((t1 - t0))s)" >&2
    exit 1
fi

echo "==> test"
"$GO" test ./...

echo "==> par (the shared parallel loop, race-enabled)"
"$GO" test -race -count=1 ./internal/par/

echo "==> verify-obs (logging determinism + SLO + exemplar + request-ID correlation, race-enabled)"
"$GO" test -race -count=1 -run 'Log|SLO|Exemplar|Exposition|OpenMetrics|Prom|RequestID|Correlation|ChromeTrace|Debug|Healthz|Slow' ./internal/telemetry/ ./internal/store/

echo "==> build telemetry (run report, registry families, span tree, race-enabled)"
"$GO" test -race -count=1 -run 'TestBuild|TestServeTelemetry' .

echo "==> verify-resume (kill-and-resume crash safety, race-enabled)"
"$GO" test -race -count=1 ./internal/atomicio/ ./internal/checkpoint/ ./internal/experiments/resumebench/

echo "==> verify-link (nearest-link engine and augmentation rounds, race-enabled)"
"$GO" test -race -count=1 ./internal/core/nearestlink/ ./internal/core/augment/

echo "==> verify-synth (batch synthesis and corpus generation, race-enabled)"
"$GO" test -race -count=1 ./internal/core/oversample/ ./internal/corpus/

echo "==> verify-neural (RNN inference memo and reference bit-identity, race-enabled)"
"$GO" test -race -count=1 ./internal/ml/neural/

echo "==> verify-train (SMO, ensemble and pool scoring race-enabled; Tables IV and VI at 1 and 4 workers)"
"$GO" test -race -count=1 ./internal/ml/... ./internal/core/baselines/
"$GO" test -count=1 -run '^TestWorkerInvariance$' ./internal/experiments/

echo "==> verify-retry (retry policy, circuit breaker and fault injector, race-enabled)"
"$GO" test -race -count=1 ./internal/faults/ ./internal/retry/

echo "==> bench-smoke (nearest-link engine, fully reference-verified)"
"$GO" run ./cmd/patchdb-bench -only NEARESTLINK -smoke

# go test fuzzes one target per run, so the nine targets run one at a time.
echo "==> fuzz-smoke (diff, cast, lexer, dataset, store query, checkpoint manifest and NVD feed decoders, nearest-link search, 10s per target)"
"$GO" test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/diff/
"$GO" test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/cast/
"$GO" test -run '^$' -fuzz '^FuzzComputeApply$' -fuzztime 10s ./internal/diff/
"$GO" test -run '^$' -fuzz '^FuzzLex$' -fuzztime 10s ./internal/ctoken/
"$GO" test -run '^$' -fuzz '^FuzzLoadDataset$' -fuzztime 10s .
"$GO" test -run '^$' -fuzz '^FuzzQuery$' -fuzztime 10s ./internal/store/
"$GO" test -run '^$' -fuzz '^FuzzOpenManifest$' -fuzztime 10s ./internal/checkpoint/
"$GO" test -run '^$' -fuzz '^FuzzCrawlFeed$' -fuzztime 10s ./internal/nvd/
"$GO" test -run '^$' -fuzz '^FuzzSearch$' -fuzztime 10s ./internal/core/nearestlink/

echo "ci: ok"
