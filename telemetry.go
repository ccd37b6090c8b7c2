package patchdb

import (
	"context"

	"patchdb/internal/telemetry"
)

// TelemetryHub bundles the two sinks a run instruments into: the metrics
// registry (counters, gauges, fixed-bucket histograms) and the span tracer
// (bounded in-memory buffer, exported in the RunReport and as a Chrome
// trace). Pass one to BuilderConfig.Telemetry to observe a Build, and to
// ServeTelemetry to scrape it over HTTP while the build runs.
type TelemetryHub = telemetry.Hub

// TelemetryServer is a running /metrics + /debug/pprof endpoint.
type TelemetryServer = telemetry.Server

// RunReport is the structured end-of-run telemetry artifact: per-stage
// timings, crawl retry/circuit-breaker/quarantine accounting, degradation
// state, nearest-link engine counters, the full metrics snapshot, and the
// buffered trace spans, as one JSON document.
type RunReport = telemetry.RunReport

// RunReportStage is one pipeline stage's accounting inside a RunReport.
type RunReportStage = telemetry.StageReport

// DefaultRunReportPath is the conventional RunReport output filename.
const DefaultRunReportPath = telemetry.DefaultRunReportPath

// NewTelemetryHub creates a hub with a fresh registry and tracer.
func NewTelemetryHub() *TelemetryHub { return telemetry.NewHub() }

// DefaultTelemetryHub returns the process-wide hub (what instrumentation
// uses when no hub travels in the context).
func DefaultTelemetryHub() *TelemetryHub { return telemetry.Default() }

// WithTelemetryHub returns a context carrying hub; instrumented layers
// (the crawler, the nearest-link engine, the builder) publish to the hub in
// their context instead of the process-wide default.
func WithTelemetryHub(ctx context.Context, hub *TelemetryHub) context.Context {
	return telemetry.WithHub(ctx, hub)
}

// ServeTelemetry binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// hub's Prometheus-text /metrics plus the /debug/pprof profiling endpoints
// until Close. A nil hub serves the process-wide default hub.
func ServeTelemetry(addr string, hub *TelemetryHub) (*TelemetryServer, error) {
	return telemetry.Serve(addr, hub)
}

// NewRunReport seeds a report with tool name plus the hub's metrics
// snapshot and span buffer; callers append their stage accounting.
func NewRunReport(tool string, hub *TelemetryHub) *RunReport {
	return telemetry.NewRunReport(tool, hub)
}
