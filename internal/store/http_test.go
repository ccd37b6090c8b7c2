package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"patchdb/internal/telemetry"
)

func testAPI(t *testing.T, hub *telemetry.Hub, reload func() (*Snapshot, error)) (*Store, http.Handler) {
	t.Helper()
	st := New(0, hub)
	st.Load(testDataset(60, "v1"))
	return st, NewHandler(st, hub, reload)
}

func get(t *testing.T, h http.Handler, method, target string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

// TestHandlerStatusTable covers the 2xx/4xx surface of every endpoint.
func TestHandlerStatusTable(t *testing.T) {
	_, h := testAPI(t, nil, nil)
	cases := []struct {
		method, target string
		wantCode       int
		wantBody       string // substring
	}{
		{"GET", "/v1/patch/commit-0000", http.StatusOK, `"commit-0000"`},
		{"GET", "/v1/patch/unknown", http.StatusNotFound, "no patch"},
		{"GET", "/v1/cve/CVE-2020-00000", http.StatusOK, `"records"`},
		{"GET", "/v1/cve/CVE-1999-00000", http.StatusNotFound, "no patches"},
		{"GET", "/v1/patches", http.StatusOK, `"records"`},
		{"GET", "/v1/patches?source=nvd&security=true&limit=5", http.StatusOK, `"next_cursor"`},
		{"GET", "/v1/patches?security=maybe", http.StatusBadRequest, "not a boolean"},
		{"GET", "/v1/patches?pattern=boundcheck", http.StatusBadRequest, "pattern"},
		{"GET", "/v1/patches?pattern=99", http.StatusBadRequest, "out of range"},
		{"GET", "/v1/patches?limit=nope", http.StatusBadRequest, "not an integer"},
		{"GET", "/v1/patches?limit=100000", http.StatusBadRequest, "out of range"},
		{"GET", "/v1/patches?source=bitbucket", http.StatusBadRequest, "unknown source"},
		{"GET", "/v1/stats", http.StatusOK, `"records": 60`},
		{"GET", "/v1/distribution", http.StatusOK, `"distribution"`},
		{"GET", "/healthz", http.StatusOK, `"ok"`},
		{"POST", "/reload", http.StatusNotImplemented, "no reload source"},
		{"GET", "/v1/nonexistent", http.StatusNotFound, ""},
		{"POST", "/v1/patches", http.StatusMethodNotAllowed, ""},
		{"GET", "/reload", http.StatusMethodNotAllowed, ""},
	}
	for _, c := range cases {
		code, body := get(t, h, c.method, c.target)
		if code != c.wantCode {
			t.Errorf("%s %s: code %d, want %d (body %q)", c.method, c.target, code, c.wantCode, body)
		}
		if c.wantBody != "" && !strings.Contains(body, c.wantBody) {
			t.Errorf("%s %s: body %q missing %q", c.method, c.target, body, c.wantBody)
		}
	}
}

func TestHandlerPaginationAndFilters(t *testing.T) {
	_, h := testAPI(t, nil, nil)
	code, body := get(t, h, "GET", "/v1/patches?source=nvd&limit=4")
	if code != http.StatusOK {
		t.Fatalf("code %d: %s", code, body)
	}
	var page Page
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 4 || page.NextCursor == "" {
		t.Fatalf("page = %d records, cursor %q", len(page.Records), page.NextCursor)
	}
	for _, r := range page.Records {
		if r.Source != "nvd" {
			t.Errorf("filtered page contains source %q", r.Source)
		}
	}
	// Follow the cursor: the next page starts strictly after the last.
	code, body = get(t, h, "GET", "/v1/patches?source=nvd&limit=100&cursor="+page.NextCursor)
	if code != http.StatusOK {
		t.Fatalf("cursor page code %d", code)
	}
	var rest Page
	if err := json.Unmarshal([]byte(body), &rest); err != nil {
		t.Fatal(err)
	}
	if len(rest.Records) == 0 || rest.Records[0].ID <= page.Records[3].ID {
		t.Errorf("cursor continuation wrong: first=%v", rest.Records)
	}
	if len(page.Records)+len(rest.Records) != 15 {
		t.Errorf("nvd records across pages = %d, want 15", len(page.Records)+len(rest.Records))
	}
}

func TestHandlerReload(t *testing.T) {
	hub := telemetry.NewHub()
	var st *Store
	reload := func() (*Snapshot, error) { return st.Load(testDataset(30, "v2")), nil }
	st, h := testAPI(t, hub, reload)

	code, body := get(t, h, "POST", "/reload")
	if code != http.StatusOK {
		t.Fatalf("reload code %d: %s", code, body)
	}
	var resp struct {
		Version uint64 `json:"version"`
		Records int    `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 || resp.Records != 30 {
		t.Errorf("reload response = %+v", resp)
	}
	if st.Snapshot().Records() != 30 {
		t.Error("reload did not swap the snapshot")
	}

	// A failing reload keeps the current snapshot and answers 500.
	failing := NewHandler(st, hub, func() (*Snapshot, error) {
		return nil, errors.New("disk gone")
	})
	code, body = get(t, failing, "POST", "/reload")
	if code != http.StatusInternalServerError || !strings.Contains(body, "disk gone") {
		t.Errorf("failing reload: %d %q", code, body)
	}
	if st.Snapshot().Records() != 30 {
		t.Error("failed reload disturbed the snapshot")
	}
}

// TestHandlerTelemetry: every request lands in the hub as a counter with
// endpoint+code labels, a latency observation, and a span.
func TestHandlerTelemetry(t *testing.T) {
	hub := telemetry.NewHub()
	_, h := testAPI(t, hub, nil)
	get(t, h, "GET", "/v1/patch/commit-0000")
	get(t, h, "GET", "/v1/patch/unknown")
	get(t, h, "GET", "/v1/stats")

	if v := hub.Registry.Counter(MetricRequests,
		telemetry.L("endpoint", "patch"), telemetry.L("code", "200")).Value(); v != 1 {
		t.Errorf("patch 200 counter = %v", v)
	}
	if v := hub.Registry.Counter(MetricRequests,
		telemetry.L("endpoint", "patch"), telemetry.L("code", "404")).Value(); v != 1 {
		t.Errorf("patch 404 counter = %v", v)
	}
	hist := hub.Registry.Histogram(MetricRequestSeconds, nil, telemetry.L("endpoint", "stats")).Snapshot()
	if hist.Count != 1 {
		t.Errorf("stats latency observations = %d", hist.Count)
	}
	spans := hub.Tracer.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "serve.") {
			t.Errorf("span %q lacks the serve. prefix", s.Name)
		}
	}
}

// TestServeLifecycle exercises the real listener: bind, query over TCP,
// graceful Close.
func TestServeLifecycle(t *testing.T) {
	st := New(0, nil)
	st.Load(testDataset(10, "v1"))
	srv, err := Serve("127.0.0.1:0", NewHandler(st, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"records": 10`) {
		t.Errorf("stats over TCP: %d %q", resp.StatusCode, body)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil close: %v", err)
	}
}

// TestServeConcurrentClientsDuringReload drives the real listener the way
// a consumer fleet does: 4 clients replay a mixed request set over
// loopback while another goroutine posts /reload 20 times. Each client
// replays the whole set at least once and keeps going until every reload
// has finished, so the reloads overlap its requests. Every request must
// get an answer, and none may be a 5xx.
func TestServeConcurrentClientsDuringReload(t *testing.T) {
	const clients, reloads = 4, 20
	ds := testDataset(120, "v1")
	st := New(0, nil)
	st.Load(ds)
	srv, err := Serve("127.0.0.1:0", NewHandler(st, nil, func() (*Snapshot, error) { return st.Load(ds), nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}}
	defer client.CloseIdleConnections()
	paths := []string{
		"/v1/patch/commit-0004", "/v1/patch/unknown",
		"/v1/cve/CVE-2020-00002", "/v1/cve/CVE-1999-00000",
		"/v1/patches?source=nvd&security=true&limit=5", "/v1/patches?cursor=commit-0050&limit=50",
		"/v1/patches?security=maybe", "/v1/stats", "/v1/distribution", "/healthz",
	}
	// do sends one request and reports a transport error or a 5xx.
	do := func(method, path string) error {
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode >= 500 {
			return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return nil
	}

	reloaded := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(reloaded)
		for i := 0; i < reloads; i++ {
			if err := do(http.MethodPost, "/reload"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= len(paths) {
					select {
					case <-reloaded:
						return
					default:
					}
				}
				if err := do(http.MethodGet, paths[(c+i)%len(paths)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := st.Snapshot().Version; v != 1+reloads {
		t.Errorf("version after the replay = %d, want %d", v, 1+reloads)
	}
}
