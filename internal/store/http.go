package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"patchdb"
	"patchdb/internal/telemetry"
)

// Metric names published by the HTTP layer.
const (
	MetricRequests       = "patchdb_serve_requests_total"
	MetricRequestSeconds = "patchdb_serve_request_seconds"
	MetricReloads        = "patchdb_serve_reloads_total"
	// MetricPanics counts handler panics the recovery middleware converted
	// into 500s instead of letting them kill the serving process.
	MetricPanics = "patchdb_store_http_panics_total"
)

// DefaultRequestTimeout is the per-request handler deadline. A handler that
// exceeds it gets a 503 and its (abandoned) output is discarded.
const DefaultRequestTimeout = 30 * time.Second

// DefaultSlowRequestThreshold is the latency above which a request earns a
// warn-level log record carrying its trace ID, unless
// WithSlowRequestThreshold overrides it.
const DefaultSlowRequestThreshold = 250 * time.Millisecond

// DefaultObjectives are the SLOs every handler evaluates: 99.9%
// availability, and 99% of requests within the slow threshold.
func DefaultObjectives() []telemetry.Objective {
	return []telemetry.Objective{
		{Name: "availability", Target: 0.999},
		{Name: "latency", Target: 0.99, Threshold: DefaultSlowRequestThreshold},
	}
}

// HandlerOption customizes NewHandler.
type HandlerOption func(*api)

// WithSlowRequestThreshold sets the latency above which a request is logged
// as slow; non-positive disables slow-request logging.
func WithSlowRequestThreshold(d time.Duration) HandlerOption {
	return func(s *api) { s.slow = d }
}

// WithRequestIDs replaces the request-ID generator used when a request
// arrives without an X-Request-ID header (tests inject a sequential one).
func WithRequestIDs(next func() string) HandlerOption {
	return func(s *api) { s.newID = next }
}

// NewHandler builds the versioned query API over st:
//
//	GET  /v1/patch/{id}     one record by commit hash
//	GET  /v1/cve/{cve}      every record fixing a CVE
//	GET  /v1/patches        filtered scan with cursor pagination
//	                        (?source= &security= &pattern= &repo=
//	                         &cursor= &limit=)
//	GET  /v1/stats          component sizes, record count, version
//	GET  /v1/distribution   Table V pattern distribution
//	POST /reload            swap in a fresh snapshot via the reload hook
//	GET  /healthz           liveness
//	GET  /debug/slo         current SLO burn-rate verdicts (JSON)
//	GET  /debug/logs        last N structured log records (JSON)
//	GET  /debug/status      self-contained HTML operator dashboard
//
// Every endpoint is instrumented into hub (request counters by endpoint and
// status code, latency histograms with per-request exemplars, one span per
// request), wrapped in a panic-recovery middleware (a panicking handler
// answers 500 and increments MetricPanics instead of killing the process),
// and bounded by a per-request deadline (DefaultRequestTimeout; a handler
// that overruns answers 503).
// Every request is correlated: an inbound X-Request-ID is honored (minted
// otherwise), echoed in the response headers and error bodies, attached to
// the request's span, log records, and latency exemplar, and requests slower
// than the slow threshold log a warn record carrying it. The /debug/*
// endpoints are deliberately uninstrumented so dashboard polling cannot
// spend the error budget they report on. reload is invoked by POST /reload;
// pass nil to disable the endpoint (it then answers 501). A nil hub gets a
// private one.
func NewHandler(st *Store, hub *telemetry.Hub, reload func() (*Snapshot, error), opts ...HandlerOption) http.Handler {
	if hub == nil {
		hub = telemetry.NewHub()
	}
	s := &api{
		store:   st,
		reg:     hub.Registry,
		tracer:  hub.Tracer,
		logger:  hub.Logger(),
		reload:  reload,
		timeout: DefaultRequestTimeout,
		slow:    DefaultSlowRequestThreshold,
		newID:   telemetry.NewRequestID,
		slos:    telemetry.NewSLOSet(hub.Registry, hub.Logger(), nil, DefaultObjectives()...),
		started: time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	hub.Registry.SetHelp(MetricRequests, "Requests served, by endpoint and status code.")
	hub.Registry.SetHelp(MetricRequestSeconds, "Request latency in seconds, by endpoint.")
	hub.Registry.SetHelp(MetricReloads, "Successful snapshot reloads.")
	hub.Registry.SetHelp(MetricPanics, "Handler panics converted into 500s.")
	hub.Registry.SetHelp("patchdb_slo_burn_rate", "Error-budget burn rate, by objective and window.")
	hub.Registry.SetHelp("patchdb_slo_healthy", "1 while no burn-rate pair fires for the objective.")
	mux := http.NewServeMux()
	mux.Handle("GET /v1/patch/{id}", s.instrument("patch", s.handlePatch))
	mux.Handle("GET /v1/cve/{cve}", s.instrument("cve", s.handleCVE))
	mux.Handle("GET /v1/patches", s.instrument("patches", s.handlePatches))
	mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.Handle("GET /v1/distribution", s.instrument("distribution", s.handleDistribution))
	mux.Handle("POST /reload", s.instrument("reload", s.handleReload))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /debug/slo", s.slos.Handler())
	mux.Handle("GET /debug/logs", hub.LogsHandler())
	mux.Handle("GET /debug/status", s.statusHandler())
	return mux
}

// api carries the handler dependencies: the store, the telemetry sinks
// (extracted from the hub once, at construction), and the reload hook.
type api struct {
	store   *Store
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	logger  *slog.Logger
	slos    *telemetry.SLOSet
	reload  func() (*Snapshot, error)
	timeout time.Duration
	slow    time.Duration
	newID   func() string
	started time.Time
}

// statusWriter captures the status code for the request counter, and whether
// anything was written — the recovery middleware can only substitute a 500
// while the response has not started.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps an endpoint with request correlation (accept or mint an
// X-Request-ID, echo it, carry it on the context), a per-request span, a
// latency observation with the request's exemplar, SLO accounting, and a
// (endpoint, code) request counter, around the recovery and deadline
// middlewares (outermost to innermost: metrics → recover → timeout →
// handler, so a panic or deadline still lands in the counters). Requests
// slower than the slow threshold earn a warn log record with the trace ID.
func (s *api) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	hist := s.reg.Histogram(MetricRequestSeconds, nil, telemetry.L("endpoint", endpoint))
	var inner http.Handler = h
	if s.timeout > 0 {
		inner = http.TimeoutHandler(inner, s.timeout, `{"error":"request deadline exceeded"}`)
	}
	inner = s.recoverPanics(endpoint, inner)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			// newID is always set by NewHandler; the fallback keeps
			// hand-assembled api values (tests) working.
			if s.newID != nil {
				id = s.newID()
			} else {
				id = telemetry.NewRequestID()
			}
		}
		w.Header().Set("X-Request-ID", id)
		ctx := telemetry.WithTraceID(r.Context(), id)
		// The span is the request's stopwatch: elapsed is its End reading.
		// The deferred End covers a re-raised abort panic.
		ctx, span := s.tracer.Start(ctx, "serve."+endpoint)
		defer span.End()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		inner.ServeHTTP(sw, r.WithContext(ctx))
		span.SetAttr("status", sw.status)
		elapsed := span.End()
		hist.ObserveExemplar(elapsed.Seconds(), id)
		s.slos.RecordRequest(sw.status, elapsed)
		s.reg.Counter(MetricRequests,
			telemetry.L("endpoint", endpoint),
			telemetry.L("code", strconv.Itoa(sw.status))).Inc()
		if s.slow > 0 && elapsed >= s.slow && s.logger != nil {
			s.logger.LogAttrs(ctx, slog.LevelWarn, "slow request",
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("elapsed", elapsed),
			)
		}
	})
}

// recoverPanics converts a handler panic into a 500 (when the response has
// not started) and counts it in MetricPanics, so one poisoned request cannot
// take down the serving process. http.TimeoutHandler re-raises its child's
// panic in this goroutine, so the middleware covers timed-out handlers too;
// http.ErrAbortHandler is the deliberate abort idiom and propagates.
func (s *api) recoverPanics(endpoint string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(v)
			}
			s.reg.Counter(MetricPanics, telemetry.L("endpoint", endpoint)).Inc()
			if sw, ok := w.(*statusWriter); !ok || !sw.wrote {
				writeError(w, r, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// errorBody is the JSON shape of every non-2xx API response. RequestID
// repeats the response's X-Request-ID header so a client that only kept the
// body can still quote the correlation ID when reporting the failure.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// The status line is already out; an encode failure here can only be a
	// dead client, which the server loop surfaces on its own.
	_ = enc.Encode(v)
}

// writeError emits the error body with the request's correlation ID. The ID
// comes from the context, not the response headers: http.TimeoutHandler
// hands inner handlers a private header map, so the X-Request-ID set by the
// instrument middleware is not visible through w here.
func writeError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{
		Error:     fmt.Sprintf(format, args...),
		RequestID: telemetry.TraceIDFromContext(r.Context()),
	})
}

func (s *api) handlePatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Snapshot().Get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, "no patch with id %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// cveResponse is the /v1/cve/{cve} payload.
type cveResponse struct {
	CVE     string           `json:"cve"`
	Records []patchdb.Record `json:"records"`
	Version uint64           `json:"version"`
}

func (s *api) handleCVE(w http.ResponseWriter, r *http.Request) {
	cve := r.PathValue("cve")
	sn := s.store.Snapshot()
	recs := sn.CVE(cve)
	if len(recs) == 0 {
		writeError(w, r, http.StatusNotFound, "no patches for %q", cve)
		return
	}
	writeJSON(w, http.StatusOK, cveResponse{CVE: cve, Records: recs, Version: sn.Version})
}

// parseQuery maps the /v1/patches URL parameters onto a Query, reporting
// the first malformed parameter.
func parseQuery(r *http.Request) (Query, error) {
	params := r.URL.Query()
	q := Query{
		Source: params.Get("source"),
		Repo:   params.Get("repo"),
		Cursor: params.Get("cursor"),
	}
	if v := params.Get("security"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return q, fmt.Errorf("security=%q is not a boolean", v)
		}
		q.Security = &b
	}
	if v := params.Get("pattern"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return q, fmt.Errorf("pattern=%q is not a pattern class number", v)
		}
		q.Pattern = patchdb.Pattern(n)
	}
	if v := params.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return q, fmt.Errorf("limit=%q is not an integer", v)
		}
		q.Limit = n
	}
	return q, nil
}

func (s *api) handlePatches(w http.ResponseWriter, r *http.Request) {
	q, err := parseQuery(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	page, err := s.store.Snapshot().List(q)
	if err != nil {
		if errors.Is(err, ErrBadQuery) {
			writeError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	patchdb.Stats
	Records    int    `json:"records"`
	Duplicates int    `json:"duplicates,omitempty"`
	Version    uint64 `json:"version"`
}

func (s *api) handleStats(w http.ResponseWriter, r *http.Request) {
	sn := s.store.Snapshot()
	writeJSON(w, http.StatusOK, statsResponse{
		Stats:      sn.Stats(),
		Records:    sn.Records(),
		Duplicates: sn.Duplicates(),
		Version:    sn.Version,
	})
}

// distributionEntry is one pattern class row of /v1/distribution.
type distributionEntry struct {
	Pattern     int    `json:"pattern"`
	Description string `json:"description"`
	Count       int    `json:"count"`
}

// distributionResponse is the /v1/distribution payload, in pattern order.
type distributionResponse struct {
	Distribution []distributionEntry `json:"distribution"`
	Version      uint64              `json:"version"`
}

func (s *api) handleDistribution(w http.ResponseWriter, r *http.Request) {
	sn := s.store.Snapshot()
	dist := sn.Distribution()
	resp := distributionResponse{Version: sn.Version}
	for p := patchdb.Pattern(1); int(p) <= patchdb.NumPatterns; p++ {
		resp.Distribution = append(resp.Distribution, distributionEntry{
			Pattern:     int(p),
			Description: p.String(),
			Count:       dist[p],
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// reloadResponse is the POST /reload payload.
type reloadResponse struct {
	Version uint64        `json:"version"`
	Stats   patchdb.Stats `json:"stats"`
	Records int           `json:"records"`
}

func (s *api) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.reload == nil {
		writeError(w, r, http.StatusNotImplemented, "no reload source configured")
		return
	}
	sn, err := s.reload()
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "reload: %v", err)
		return
	}
	s.reg.Counter(MetricReloads).Inc()
	writeJSON(w, http.StatusOK, reloadResponse{Version: sn.Version, Stats: sn.Stats(), Records: sn.Records()})
}

// healthResponse is the /healthz payload: liveness plus reload health, so a
// probe can tell "serving, but the artifact on disk no longer loads" from
// "serving the latest snapshot".
type healthResponse struct {
	OK      bool   `json:"ok"`
	Version uint64 `json:"version"`
	Records int    `json:"records"`
	// SnapshotAgeSeconds is how long the current snapshot has been serving
	// (-1 until the first successful load).
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// LastReloadError surfaces a failed reload (POST /reload or SIGHUP)
	// while the previous snapshot keeps serving; "" once a reload succeeds.
	LastReloadError string `json:"last_reload_error,omitempty"`
	// LastReloadAt is the RFC 3339 time of the most recent load attempt,
	// successful or not (omitted if none).
	LastReloadAt string `json:"last_reload_at,omitempty"`
	// RequestID echoes the response's X-Request-ID header, making the
	// correlation contract visible to probes.
	RequestID string `json:"request_id,omitempty"`
	// SLO summarizes each active objective's current burn-rate verdict.
	SLO []string `json:"slo,omitempty"`
}

func (s *api) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.store.Health()
	resp := healthResponse{
		OK:                 true,
		Version:            h.Version,
		Records:            h.Records,
		SnapshotAgeSeconds: -1,
		LastReloadError:    h.LastReloadError,
		RequestID:          telemetry.TraceIDFromContext(r.Context()),
		SLO:                telemetry.Summary(s.slos.Evaluate()),
	}
	if !h.LoadedAt.IsZero() {
		resp.SnapshotAgeSeconds = time.Since(h.LoadedAt).Seconds()
	}
	if !h.LastReloadAt.IsZero() {
		resp.LastReloadAt = h.LastReloadAt.UTC().Format(time.RFC3339Nano)
	}
	writeJSON(w, http.StatusOK, resp)
}
