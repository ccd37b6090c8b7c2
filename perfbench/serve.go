package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"patchdb"
	"patchdb/internal/experiments"
	"patchdb/internal/experiments/servebench"
	"patchdb/internal/store"
	"patchdb/internal/telemetry"
)

// serveShape sizes the serve workload.
type serveShape struct {
	NVD, NonSec, Wild int // dataset components (servebench.ServeDataset)
	Mix               int // distinct requests, replayed cyclically
	Warmup            int // warm-up requests per set-up
	ReloadEvery       int // client 0 posts /reload after this many of its requests
}

// Request kinds of the consumer mix.
const (
	reqHit = iota
	reqMiss
	reqCVE
	reqList
	reqCursor
	reqStats
	reqDist
)

// request is one read request of the mix with what its answer must satisfy.
type request struct {
	kind   int
	path   string
	key    string // hit: record ID; cve: CVE ID; cursor page: cursor
	source string // list: source filter
	limit  int
}

// serveBench drives store.NewHandler over loopback HTTP with two
// closed-loop clients, one of which also reloads the snapshot from disk at
// a fixed request interval.
type serveBench struct {
	seed    int64
	sh      serveShape
	workDir string
	dir     string // the dataset file's directory, under workDir
	path    string
	records int
	mix     []request

	st      *store.Store
	handler http.Handler
	srv     *store.Server
	client  *http.Client
	version atomic.Uint64 // highest snapshot version a reload returned

	tr    *tracer // set for the traced timed phase
	opSeq atomic.Int64
}

func newServeBench(cfg config) *serveBench {
	sh := serveShape{NVD: 400, NonSec: 800, Wild: 8000, Mix: 20000, Warmup: 2000, ReloadEvery: 2000}
	if cfg.smoke {
		sh = serveShape{NVD: 30, NonSec: 60, Wild: 300, Mix: 400, Warmup: 200, ReloadEvery: 20}
	}
	return &serveBench{seed: cfg.seed, sh: sh, workDir: cfg.workDir}
}

func (b *serveBench) shape() map[string]any {
	return map[string]any{"nvd": b.sh.NVD, "non_security_seed": b.sh.NonSec, "wild_pool": b.sh.Wild,
		"records": b.records, "mix": b.sh.Mix, "warmup_requests": b.sh.Warmup,
		"reload_every": b.sh.ReloadEvery, "clients": workers, "shards": store.DefaultShards}
}

// prepare generates the dataset, writes it to disk, loads it into a fresh
// store and starts the server.
func (b *serveBench) prepare() error {
	if err := b.stop(); err != nil {
		return err
	}
	ds := servebench.ServeDataset(experiments.Scale{Seed: b.seed, NVDSeed: b.sh.NVD, NonSecSeed: b.sh.NonSec, SetI: b.sh.Wild})
	if b.dir == "" {
		if err := os.MkdirAll(b.workDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(b.workDir, "serve-")
		if err != nil {
			return err
		}
		b.dir, b.path = dir, filepath.Join(dir, "dataset.json")
	}
	if err := writeDataset(ds, b.path); err != nil {
		return err
	}
	hub := telemetry.NewHub()
	hub.SetLogger(nil) // the log ring only: keep stderr clean
	b.st = store.New(store.DefaultShards, hub)
	sn, err := b.st.LoadFile(b.path)
	if err != nil {
		return err
	}
	b.records = sn.Records()
	b.version.Store(sn.Version)
	b.mix = requestMix(rand.New(rand.NewSource(b.seed)), ds, b.sh.Mix)
	b.handler = store.NewHandler(b.st, hub, b.reload)
	if b.srv, err = store.Serve("127.0.0.1:0", b.handler); err != nil {
		return err
	}
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConns: workers, MaxIdleConnsPerHost: workers}}
	return nil
}

// writeDataset writes ds as JSON without the fsync of Dataset.SaveJSON:
// the file is the server's input, not a durable artifact, and disk flush
// latency on a shared machine would swamp set-up time.
func writeDataset(ds *patchdb.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := ds.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reload is the handler's POST /reload hook: a snapshot rebuild from disk.
func (b *serveBench) reload() (*store.Snapshot, error) {
	id := b.tr.beginOp("store.reload", 0, -2)
	defer b.tr.end(id)
	return b.st.LoadFile(b.path)
}

// stop shuts the server down and drops idle connections.
func (b *serveBench) stop() error {
	if b.srv == nil {
		return nil
	}
	b.client.CloseIdleConnections()
	err := b.srv.Close()
	b.srv = nil
	return err
}

func (b *serveBench) close() error {
	err := b.stop()
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// requestMix builds the deterministic consumer mix: point lookups (10%
// misses), CVE lookups, filtered and cursor-resumed list pages, and
// stats/distribution calls. It mirrors the unexported serveRequestMix of
// internal/experiments/servebench, with fields added for the checks, and
// must keep its proportions and random-draw order; once servebench exports
// its mix, call that instead.
func requestMix(rng *rand.Rand, ds *patchdb.Dataset, n int) []request {
	var ids, cves []string
	for _, c := range [][]patchdb.Record{ds.NVD, ds.Wild, ds.NonSecurity, ds.Synthetic} {
		for _, r := range c {
			ids = append(ids, r.ID)
			if r.CVE != "" {
				cves = append(cves, r.CVE)
			}
		}
	}
	out := make([]request, n)
	for i := range out {
		switch p := rng.Float64(); {
		case p < 0.60:
			id := ids[rng.Intn(len(ids))]
			out[i] = request{kind: reqHit, path: "/v1/patch/" + id, key: id}
		case p < 0.70:
			out[i] = request{kind: reqMiss, path: fmt.Sprintf("/v1/patch/unknown-%d", rng.Intn(1<<30))}
		case p < 0.80:
			cve := cves[rng.Intn(len(cves))]
			out[i] = request{kind: reqCVE, path: "/v1/cve/" + cve, key: cve}
		case p < 0.90:
			src := []string{"nvd", "wild"}[rng.Intn(2)]
			limit := 10 + rng.Intn(40)
			out[i] = request{kind: reqList, source: src, limit: limit,
				path: fmt.Sprintf("/v1/patches?source=%s&security=true&limit=%d", src, limit)}
		case p < 0.95:
			cur := ids[rng.Intn(len(ids))]
			out[i] = request{kind: reqCursor, key: cur, limit: 50, path: "/v1/patches?cursor=" + cur + "&limit=50"}
		case p < 0.98:
			out[i] = request{kind: reqStats, path: "/v1/stats"}
		default:
			out[i] = request{kind: reqDist, path: "/v1/distribution"}
		}
	}
	return out
}

// check verifies one answer without decoding it. The handler writes
// indented JSON (`"key": value`) and escapes every quote inside a string
// value, so `"key": ` only matches object keys.
func (b *serveBench) check(r *request, code int, body []byte) error {
	want := http.StatusOK
	if r.kind == reqMiss {
		want = http.StatusNotFound
	}
	if code != want {
		return fmt.Errorf("%s: status %d, want %d", r.path, code, want)
	}
	switch r.kind {
	case reqHit:
		if countKeyValue(body, "id", r.key) != 1 || bytes.Count(body, []byte(`"id": "`)) != 1 {
			return fmt.Errorf("%s: body does not hold record %s", r.path, r.key)
		}
	case reqCVE:
		all := bytes.Count(body, []byte(`"cve": "`))
		match := countKeyValue(body, "cve", r.key)
		if all < 2 || match != all {
			return fmt.Errorf("%s: %d of %d cve fields match", r.path, match, all)
		}
	case reqList, reqCursor:
		n := bytes.Count(body, []byte(`"id": "`))
		// A cursor at the last ID legitimately gets an empty page.
		if n > r.limit || (n == 0 && r.kind == reqList) {
			return fmt.Errorf("%s: %d records for limit %d", r.path, n, r.limit)
		}
		if r.kind == reqList {
			if src := countKeyValue(body, "source", r.source); src != n {
				return fmt.Errorf("%s: %d of %d records from source %s", r.path, src, n, r.source)
			}
			if sec := bytes.Count(body, []byte(`"security": true`)); sec != n {
				return fmt.Errorf("%s: %d of %d records are security patches", r.path, sec, n)
			}
			break
		}
		prev := r.key
		for rest := body; ; {
			i := bytes.Index(rest, []byte(`"id": "`))
			if i < 0 {
				break
			}
			rest = rest[i+len(`"id": "`):]
			j := bytes.IndexByte(rest, '"')
			if j < 0 || string(rest[:j]) <= prev {
				return fmt.Errorf("%s: record IDs not ascending after the cursor", r.path)
			}
			prev = string(rest[:j])
		}
	case reqStats:
		if !bytes.Contains(body, []byte(`"records": `+strconv.Itoa(b.records)+`,`)) {
			return fmt.Errorf("%s: record count is not %d", r.path, b.records)
		}
	case reqDist:
		if n := bytes.Count(body, []byte(`"pattern": `)); n != patchdb.NumPatterns {
			return fmt.Errorf("%s: %d pattern rows, want %d", r.path, n, patchdb.NumPatterns)
		}
	}
	return nil
}

// countKeyValue counts `"key": "value"` in body.
func countKeyValue(body []byte, key, value string) int {
	return bytes.Count(body, []byte(`"`+key+`": "`+value+`"`))
}

// clientStats is one client's share of a loop.
type clientStats struct {
	lat, traced []float64 // read-request latencies (untraced, traced), ms
	attempted   int
	failed      int
	failures    []string // the first few
}

func (c *clientStats) fail(err error) {
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, err.Error())
	}
}

// get issues one request and reads the whole answer into buf.
func (b *serveBench) get(method, path string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, b.srv.URL+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// loop runs the two closed-loop clients, each over its half of the mix
// (client c takes requests c, c+2, ...), until each has sent n/2 requests
// (n > 0) or until the deadline passes (n == 0).
func (b *serveBench) loop(n int, deadline time.Time) []clientStats {
	out := make([]clientStats, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.runClient(c, n/workers, deadline, &out[c])
		}(c)
	}
	wg.Wait()
	return out
}

// runClient is closed-loop client c: it sends its next request when the
// previous answer has been read and checked.
func (b *serveBench) runClient(c, n int, deadline time.Time, cs *clientStats) {
	var buf bytes.Buffer
	for j := 0; (n > 0 && j < n) || (n == 0 && time.Now().Before(deadline)); j++ {
		if c == 0 && j > 0 && j%b.sh.ReloadEvery == 0 {
			cs.attempted++
			if err := b.postReload(&buf); err != nil {
				cs.fail(err)
			}
		}
		r := &b.mix[(c+workers*j)%len(b.mix)]
		cs.attempted++
		if b.tr != nil && j%2 == 0 {
			ms, err := b.tracedRequest(r, &buf)
			if err != nil {
				cs.fail(err)
				continue
			}
			cs.traced = append(cs.traced, ms)
			continue
		}
		t0 := time.Now()
		code, err := b.get(http.MethodGet, r.path, &buf)
		ms := float64(time.Since(t0)) / 1e6
		if err == nil {
			err = b.check(r, code, buf.Bytes())
		}
		if err != nil {
			cs.fail(err)
			continue
		}
		cs.lat = append(cs.lat, ms)
	}
}

// postReload asks the server to rebuild its snapshot; the version must
// advance past every version seen before.
func (b *serveBench) postReload(buf *bytes.Buffer) error {
	code, err := b.get(http.MethodPost, "/reload", buf)
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("reload: status %d", code)
	}
	body := buf.Bytes()
	i := bytes.Index(body, []byte(`"version": `))
	if i < 0 {
		return fmt.Errorf("reload: no version in %q", body)
	}
	rest := body[i+len(`"version": `):]
	j := bytes.IndexAny(rest, ",\n}")
	v, err := strconv.ParseUint(string(rest[:max(j, 0)]), 10, 64)
	if err != nil {
		return fmt.Errorf("reload: version: %w", err)
	}
	if prev := b.version.Load(); v <= prev {
		return fmt.Errorf("reload: version %d does not advance past %d", v, prev)
	}
	b.version.Store(v)
	return nil
}

// tracedRequest answers r three ways, each in its own span: straight from
// the snapshot (store.query), through the handler into an in-memory
// recorder (store.handler), and over loopback HTTP (http). It returns the
// loopback latency.
func (b *serveBench) tracedRequest(r *request, buf *bytes.Buffer) (float64, error) {
	op := int(b.opSeq.Add(1))
	root := b.tr.beginOp("op", 0, op)
	defer b.tr.end(root)

	id := b.tr.beginOp("store.query", root, op)
	b.query(r)
	b.tr.end(id)

	id = b.tr.beginOp("store.handler", root, op)
	rec := httptest.NewRecorder()
	b.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.path, nil))
	b.tr.end(id)
	if err := b.check(r, rec.Code, rec.Body.Bytes()); err != nil {
		return 0, fmt.Errorf("in-memory handler: %w", err)
	}

	id = b.tr.beginOp("http", root, op)
	t0 := time.Now()
	code, err := b.get(http.MethodGet, r.path, buf)
	ms := float64(time.Since(t0)) / 1e6
	b.tr.end(id)
	if err == nil {
		err = b.check(r, code, buf.Bytes())
	}
	return ms, err
}

// sink keeps direct query results alive.
var sink atomic.Int64

// query answers r straight from the current snapshot.
func (b *serveBench) query(r *request) {
	sn := b.st.Snapshot()
	n := 0
	switch r.kind {
	case reqHit, reqMiss:
		if _, ok := sn.Get(r.key); ok {
			n = 1
		}
	case reqCVE:
		n = len(sn.CVE(r.key))
	case reqList:
		sec := true
		page, _ := sn.List(store.Query{Source: r.source, Security: &sec, Limit: r.limit})
		n = len(page.Records)
	case reqCursor:
		page, _ := sn.List(store.Query{Cursor: r.key, Limit: r.limit})
		n = len(page.Records)
	case reqStats:
		n = sn.Stats().NVD + sn.Records()
	case reqDist:
		n = len(sn.Distribution())
	}
	sink.Add(int64(n))
}

// runServe runs one part of the serve workload: the set-up (dataset
// generation, write, load, server start and a warm-up of sh.Warmup checked
// requests), then the closed loop for cfg.seconds. An op is one read
// request.
func runServe(cfg config) (p *part, err error) {
	b := newServeBench(cfg)
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()
	p = &part{}
	collect := func(stats []clientStats) {
		for _, cs := range stats {
			p.Attempted += cs.attempted
			p.Failed += cs.failed - len(cs.failures)
			for _, f := range cs.failures {
				p.fail("%s", f)
			}
		}
	}
	t0 := time.Now()
	if err := b.prepare(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	collect(b.loop(b.sh.Warmup, time.Time{}))
	p.SetupS = time.Since(t0).Seconds()

	if cfg.trace {
		b.tr = newTracer()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	start := time.Now()
	stats := b.loop(0, start.Add(time.Duration(cfg.seconds*float64(time.Second))))
	p.WallS = time.Since(start).Seconds()
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	collect(stats)
	for _, cs := range stats {
		p.OpMS = append(p.OpMS, cs.lat...)
		p.TracedMS = append(p.TracedMS, cs.traced...)
	}
	if len(p.OpMS) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", p.Failures)
	}
	reqs := float64(len(p.OpMS) + len(p.TracedMS))
	p.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / reqs
	p.PeakRSSMB = peakRSSMB()
	p.Shape = b.shape()

	if cfg.trace {
		ops := perUnit{b.tr.totals(func(op int) bool { return op > 0 }), len(p.TracedMS)}
		reloads := b.tr.totals(func(op int) bool { return op == -2 })
		query := 1e6 * ops.secs("store.query")
		handler := 1e6 * ops.secs("store.handler")
		p.Layers = map[string]float64{
			"store.query_us":   query,
			"store.handler_us": handler - query,
			"http.self_us":     1e6*ops.secs("http") - handler,
			"serve.other_s":    ops.secs("op"),
			"runtime.gc_s":     (gc1 - gc0) / reqs,
		}
		if n := reloads.count["store.reload"]; n > 0 {
			p.Layers["store.reload_ms"] = 1e3 * reloads.self["store.reload"].Seconds() / float64(n)
		}
		if p.TraceFile, err = b.tr.write(traceDir(cfg), traceName(cfg)); err != nil {
			return nil, err
		}
	}
	return p, nil
}
