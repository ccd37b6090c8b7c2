package store

import (
	"net/http"

	"patchdb/internal/telemetry"
)

// Server is a running patch-store endpoint; Close drains in-flight
// requests and returns the first serve error.
type Server = telemetry.Server

// Serve binds addr (e.g. ":8080" or "127.0.0.1:0") and serves handler until
// Close. It returns once the listener is bound, so the URL is usable at once.
func Serve(addr string, handler http.Handler) (*Server, error) {
	return telemetry.ServeHandler(addr, handler)
}
