// Command patchdb-serve exposes a built PatchDB dataset over a versioned
// HTTP/JSON query API, backed by an immutable in-memory store with atomic
// snapshot swap: rebuilding the dataset and reloading it (SIGHUP or
// POST /reload) never blocks readers.
//
// Usage:
//
//	patchdb-serve -in patchdb.json -addr 127.0.0.1:8080
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/patch/<commit-hash>
//	curl 'localhost:8080/v1/patches?source=wild&security=true&limit=5'
//	curl -X POST localhost:8080/reload             # after patchdb-build rewrites -in
//	kill -HUP $(pidof patchdb-serve)               # same, signal-driven
//
// The process also serves the telemetry hub's Prometheus-text /metrics and
// the /debug/pprof profiling endpoints on the same address, and shuts down
// gracefully on interrupt (in-flight requests drain before exit).
//
// The serving path is hardened against bad inputs and bad luck: a reload
// that fails (missing or corrupt artifact) keeps the previous snapshot
// serving and surfaces the failure on /healthz as last_reload_error and in
// the patchdb_store_reload_failures_total counter; every API handler runs
// under panic recovery (500 + patchdb_store_http_panics_total, the process
// survives) and a per-request deadline (503 once exceeded).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"patchdb"
	"patchdb/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "patchdb-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in   = flag.String("in", "patchdb.json", "dataset JSON path (reread on reload)")
		addr = flag.String("addr", "127.0.0.1:8080", "listen address")
	)
	flag.Parse()

	hub := patchdb.NewTelemetryHub()
	st := store.New(0, hub)
	sn, err := st.LoadFile(*in)
	if err != nil {
		return err
	}
	stats := sn.Stats()
	fmt.Printf("loaded %s: %d records (nvd=%d wild=%d non-security=%d synthetic=%d), version %d\n",
		*in, sn.Records(), stats.NVD, stats.Wild, stats.NonSecurity, stats.Synthetic, sn.Version)
	if d := sn.Duplicates(); d > 0 {
		fmt.Printf("warning: %d duplicate record ids dropped (first occurrence wins)\n", d)
	}

	reload := func() (*store.Snapshot, error) { return st.LoadFile(*in) }

	api := store.NewHandler(st, hub, reload)
	mux := http.NewServeMux()
	mux.Handle("/v1/", api)
	mux.Handle("/reload", api)
	mux.Handle("/healthz", api)
	mux.Handle("/debug/slo", api)
	mux.Handle("/debug/logs", api)
	mux.Handle("/debug/status", api)
	mux.Handle("/metrics", hub.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv, err := store.Serve(*addr, mux)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s/v1/ (+/metrics, /debug/status, /debug/slo, /debug/logs, /debug/pprof/) — SIGHUP or POST /reload to swap snapshots\n", srv.URL)

	// Interrupt triggers graceful shutdown; SIGHUP swaps in a fresh
	// snapshot without interrupting readers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				sn, err := st.LoadFile(*in)
				if err != nil {
					fmt.Fprintln(os.Stderr, "patchdb-serve: reload:", err)
					continue
				}
				fmt.Printf("reloaded %s: %d records, version %d\n", *in, sn.Records(), sn.Version)
			}
		}
	}()

	<-ctx.Done()
	fmt.Println("shutting down")
	return srv.Close()
}
