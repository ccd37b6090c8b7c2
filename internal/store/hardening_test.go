package store

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"patchdb/internal/telemetry"
)

func counterValue(hub *telemetry.Hub, name string) float64 {
	if hub == nil {
		return 0
	}
	total := 0.0
	for _, p := range hub.Registry.Snapshot() {
		if p.Name == name {
			total += p.Value
		}
	}
	return total
}

// TestHandlerPanicRecovery: a panicking handler answers 500, increments the
// panic counter, and leaves the server able to answer the next request.
func TestHandlerPanicRecovery(t *testing.T) {
	hub := telemetry.NewHub()
	st := New(0, hub)
	s := &api{store: st, reg: hub.Registry, tracer: hub.Tracer, timeout: DefaultRequestTimeout}
	h := s.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	code, body := get(t, h, "GET", "/boom")
	if code != http.StatusInternalServerError || !strings.Contains(body, "internal error") {
		t.Fatalf("panicking handler: %d %q, want 500 internal error", code, body)
	}
	if n := counterValue(hub, MetricPanics); n != 1 {
		t.Errorf("%s = %v, want 1", MetricPanics, n)
	}
	// The process survived; an ordinary endpoint still works.
	ok := s.instrument("ok", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	if code, _ := get(t, ok, "GET", "/ok"); code != http.StatusOK {
		t.Errorf("request after panic: %d", code)
	}
}

// TestHandlerPanicAfterWrite: once the response has started, the recovery
// middleware cannot substitute a 500; it still counts the panic and the
// connection is left to the server to tear down.
func TestHandlerPanicAfterWrite(t *testing.T) {
	hub := telemetry.NewHub()
	st := New(0, hub)
	s := &api{store: st, reg: hub.Registry, tracer: hub.Tracer}
	h := s.instrument("late", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("after header")
	})
	code, _ := get(t, h, "GET", "/late")
	if code != http.StatusOK {
		t.Fatalf("code = %d, want the already-written 200", code)
	}
	if n := counterValue(hub, MetricPanics); n != 1 {
		t.Errorf("%s = %v, want 1", MetricPanics, n)
	}
}

// TestHandlerRequestDeadline: a handler that overruns the per-request
// timeout answers 503 with a JSON error body, and the overrun lands in the
// request counter under code 503.
func TestHandlerRequestDeadline(t *testing.T) {
	hub := telemetry.NewHub()
	st := New(0, hub)
	s := &api{store: st, reg: hub.Registry, tracer: hub.Tracer, timeout: 20 * time.Millisecond}
	h := s.instrument("slow", func(w http.ResponseWriter, r *http.Request) {
		// TimeoutHandler cancels the request context at the deadline.
		<-r.Context().Done()
	})
	code, body := get(t, h, "GET", "/slow")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", code)
	}
	if !strings.Contains(body, "request deadline exceeded") {
		t.Errorf("body = %q", body)
	}
	found := false
	for _, p := range hub.Registry.Snapshot() {
		if p.Name != MetricRequests {
			continue
		}
		for _, l := range p.Labels {
			if l.Key == "code" && l.Value == "503" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no request counter with code=503")
	}
}

// TestHealthzReloadHealth: a failed LoadFile keeps the snapshot, surfaces
// last_reload_error on /healthz and in the failure counter; a successful
// load clears it.
func TestHealthzReloadHealth(t *testing.T) {
	hub := telemetry.NewHub()
	st := New(0, hub)
	st.Load(testDataset(10, "v1"))
	h := NewHandler(st, hub, nil)

	if _, err := st.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("LoadFile of missing artifact succeeded")
	}
	if st.Snapshot().Records() != 10 {
		t.Fatal("failed reload disturbed the snapshot")
	}
	if n := counterValue(hub, MetricReloadFailures); n != 1 {
		t.Errorf("%s = %v, want 1", MetricReloadFailures, n)
	}
	code, body := get(t, h, "GET", "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz code %d", code)
	}
	for _, want := range []string{`"last_reload_error"`, "missing.json", `"snapshot_age_seconds"`, `"last_reload_at"`, `"records": 10`} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz body %q missing %s", body, want)
		}
	}

	// A corrupt artifact is also a recorded failure, not a swap.
	bad := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadFile(bad); err == nil {
		t.Fatal("LoadFile of corrupt artifact succeeded")
	}
	if st.Snapshot().Records() != 10 {
		t.Fatal("corrupt reload disturbed the snapshot")
	}

	// Success clears the recorded failure.
	st.Load(testDataset(5, "v2"))
	_, body = get(t, h, "GET", "/healthz")
	if strings.Contains(body, "last_reload_error") {
		t.Errorf("healthz still reports a reload error after success: %q", body)
	}
	if !strings.Contains(body, `"version": 2`) {
		t.Errorf("healthz body %q missing version 2", body)
	}
	health := st.Health()
	if health.Version != 2 || health.Records != 5 || health.LastReloadError != "" || health.LoadedAt.IsZero() {
		t.Errorf("Health() = %+v", health)
	}
}
