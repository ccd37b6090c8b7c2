package store

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"patchdb/internal/telemetry"
)

// correlatedAPI builds a handler wired for correlation tests: sequential
// request IDs, a hub whose logger only fills the ring (no stderr noise), and
// a forced-slow reload hook so one request reliably crosses the slow
// threshold.
func correlatedAPI(t *testing.T, slowBy time.Duration) (*telemetry.Hub, http.Handler) {
	t.Helper()
	hub := telemetry.NewHub()
	hub.SetLogger(newRingLogger(hub.Logs))
	st := New(0, hub)
	st.Load(testDataset(20, "v1"))
	seq := 0
	reload := func() (*Snapshot, error) {
		time.Sleep(slowBy)
		return st.Load(testDataset(10, "v2")), nil
	}
	h := NewHandler(st, hub, reload,
		WithSlowRequestThreshold(10*time.Millisecond),
		WithRequestIDs(func() string { seq++; return fmt.Sprintf("test-%04d", seq) }),
	)
	return hub, h
}

// newRingLogger builds a logger that writes only into the given ring — no
// stderr noise under `go test`.
func newRingLogger(b *telemetry.LogBuffer) *slog.Logger {
	return slog.New(telemetry.NewLogHandler(telemetry.LogHandlerOptions{Buffer: b}))
}

// TestEndToEndCorrelation is the tentpole's acceptance test: one forced-slow
// request produces a response X-Request-ID, a warn log record, a span, and a
// /metrics exemplar that all carry the same trace ID.
func TestEndToEndCorrelation(t *testing.T) {
	hub, h := correlatedAPI(t, 20*time.Millisecond)
	if hub == nil {
		t.Fatal("correlatedAPI returned a nil hub")
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("reload: code %d body %s", rr.Code, rr.Body.String())
	}

	id := rr.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatal("response carries no X-Request-ID")
	}

	// Log record: a warn-level slow-request entry with the trace attached.
	var logged bool
	for _, rec := range hub.Logs.Records() {
		if rec.Msg == "slow request" && rec.Trace == id {
			logged = true
			if rec.Level != "WARN" {
				t.Errorf("slow request logged at %s, want WARN", rec.Level)
			}
			if rec.Attrs["endpoint"] != "reload" {
				t.Errorf("slow request attrs = %+v, want endpoint=reload", rec.Attrs)
			}
		}
	}
	if !logged {
		t.Errorf("no slow-request log record with trace %s in %+v", id, hub.Logs.Records())
	}

	// Span: the per-request span records the same trace.
	var spanned bool
	for _, sp := range hub.Tracer.Snapshot() {
		if sp.Name == "serve.reload" && sp.Trace == id {
			spanned = true
		}
	}
	if !spanned {
		t.Errorf("no serve.reload span with trace %s in %+v", id, hub.Tracer.Snapshot())
	}

	// Exemplar: the OpenMetrics exposition links a latency bucket to the
	// same trace.
	mrr := httptest.NewRecorder()
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mreq.Header.Set("Accept", "application/openmetrics-text")
	hub.MetricsHandler().ServeHTTP(mrr, mreq)
	if !strings.Contains(mrr.Body.String(), fmt.Sprintf(`# {trace_id="%s"}`, id)) {
		t.Errorf("/metrics (openmetrics) has no exemplar for trace %s:\n%s", id, mrr.Body.String())
	}
}

// TestRequestIDContract checks the header handshake: a caller-supplied
// X-Request-ID is honored and echoed; absent one, sequential minted IDs
// appear; error bodies repeat the ID.
func TestRequestIDContract(t *testing.T) {
	_, h := correlatedAPI(t, 0)

	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-77")
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-ID"); got != "caller-chosen-77" {
		t.Errorf("supplied ID not echoed: got %q", got)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/patch/nope", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("code %d", rr.Code)
	}
	id := rr.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatal("minted ID missing from error response headers")
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != id {
		t.Errorf("error body request_id = %q, want %q (the header)", body.RequestID, id)
	}
}

// TestHealthzSLOAndRequestID checks /healthz carries the request ID and the
// active objectives' verdict summaries.
func TestHealthzSLOAndRequestID(t *testing.T) {
	_, h := correlatedAPI(t, 0)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var resp struct {
		OK        bool     `json:"ok"`
		RequestID string   `json:"request_id"`
		SLO       []string `json:"slo"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Error("healthz not ok")
	}
	if resp.RequestID != rr.Header().Get("X-Request-ID") || resp.RequestID == "" {
		t.Errorf("healthz request_id = %q, header %q", resp.RequestID, rr.Header().Get("X-Request-ID"))
	}
	if len(resp.SLO) != 2 {
		t.Fatalf("healthz slo = %v, want the two default objectives", resp.SLO)
	}
	for _, s := range resp.SLO {
		if !strings.Contains(s, "healthy") {
			t.Errorf("quiet service objective not healthy: %q", s)
		}
	}
}

// TestDebugEndpoints smoke-tests /debug/slo, /debug/logs, and /debug/status
// through the full handler.
func TestDebugEndpoints(t *testing.T) {
	_, h := correlatedAPI(t, 0)
	// Generate a little traffic so the dashboard has something to show.
	for range 5 {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/patch/missing", nil))

	code, body := get(t, h, "GET", "/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo code %d", code)
	}
	for _, want := range []string{`"availability"`, `"latency"`, `"burn_rate"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/slo missing %s:\n%s", want, body)
		}
	}

	code, body = get(t, h, "GET", "/debug/logs")
	if code != http.StatusOK || !strings.Contains(body, `"records"`) {
		t.Errorf("/debug/logs code %d body %s", code, body)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/status", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/status code %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("/debug/status content type %q", ct)
	}
	page := rr.Body.String()
	for _, want := range []string{
		"patchdb-serve", "snapshot version", "Objectives", "availability",
		"Endpoints", "stats", "healthy",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/debug/status missing %q", want)
		}
	}
	// The /debug endpoints themselves must not consume SLO budget or appear
	// as endpoints: dashboard polling cannot page the operator.
	if strings.Contains(page, "debug") && strings.Contains(page, "<td>debug") {
		t.Errorf("/debug endpoints leaked into the endpoint table:\n%s", page)
	}
}

// TestSlowRequestThresholdDisabled checks a non-positive threshold silences
// slow-request records entirely.
func TestSlowRequestThresholdDisabled(t *testing.T) {
	hub := telemetry.NewHub()
	hub.SetLogger(newRingLogger(hub.Logs))
	st := New(0, hub)
	st.Load(testDataset(5, "v1"))
	h := NewHandler(st, hub, nil, WithSlowRequestThreshold(-1))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	for _, rec := range hub.Logs.Records() {
		if rec.Msg == "slow request" {
			t.Errorf("slow-request record emitted with logging disabled: %+v", rec)
		}
	}
}
