package telemetry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// OpenMetricsContentType is the content type of the OpenMetrics text
// exposition (the format that carries exemplars).
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteProm renders the registry's current state in the Prometheus text
// exposition format (version 0.0.4): a # HELP line (when registered) and a
// # TYPE line per metric family, then one sample line per instance,
// deterministically ordered. The 0.0.4 format has no exemplar syntax; use
// WriteOpenMetrics for exemplars.
func WriteProm(w io.Writer, r *Registry) error {
	return writeExposition(w, r, false)
}

// WriteOpenMetrics renders the registry in the OpenMetrics text exposition:
// HELP/TYPE metadata, sample lines, histogram bucket exemplars in the
// `# {trace_id="..."} value` syntax, and the terminating # EOF marker.
func WriteOpenMetrics(w io.Writer, r *Registry) error {
	if err := writeExposition(w, r, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// writeExposition is the shared family walk of both text formats; openMetrics
// selects exemplar emission.
func writeExposition(w io.Writer, r *Registry, openMetrics bool) error {
	points := r.Snapshot()
	lastFamily := ""
	for _, p := range points {
		if p.Name != lastFamily {
			if p.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, escapeHelp(p.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Kind); err != nil {
				return err
			}
			lastFamily = p.Name
		}
		var err error
		switch p.Kind {
		case KindHistogram:
			err = writePromHistogram(w, p, openMetrics)
		default:
			_, err = fmt.Fprintf(w, "%s%s %s\n", p.Name, promLabels(p.Labels, "", 0), promFloat(p.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits cumulative _bucket series plus _sum and _count.
// In OpenMetrics mode each bucket line carries its exemplar (most recent
// correlated observation) when one exists.
func writePromHistogram(w io.Writer, p MetricPoint, openMetrics bool) error {
	h := p.Histogram
	exemplar := func(i int) string {
		if !openMetrics || i >= len(h.Exemplars) || h.Exemplars[i].Trace == "" {
			return ""
		}
		e := h.Exemplars[i]
		return fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabelValue(e.Trace), promFloat(e.Value))
	}
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", p.Name, promLabels(p.Labels, "le", b), cum, exemplar(i)); err != nil {
			return err
		}
	}
	last := len(h.Bounds)
	cum += h.Counts[last]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", p.Name, promLabels(p.Labels, "le", math.Inf(1)), cum, exemplar(last)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", p.Name, promLabels(p.Labels, "", 0), promFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", p.Name, promLabels(p.Labels, "", 0), h.Count)
	return err
}

// labelEscaper implements the exposition-format escaping for label values:
// backslash, double quote, and newline. (Go's %q escapes more — e.g.
// non-ASCII — which scrapers would read back literally.)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper implements # HELP text escaping: backslash and newline only
// (quotes are legal in help text).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }
func escapeHelp(v string) string       { return helpEscaper.Replace(v) }

// promLabels renders a label set (plus an optional trailing le bound) as
// {k="v",...}, or "" when empty.
func promLabels(labels []Label, le string, bound float64) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", l.Key, escapeLabelValue(l.Value))
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", le, promFloat(bound))
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a float the way Prometheus expects (+Inf, not +inf).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricsHandler serves the hub's registry: Prometheus text format by
// default, the OpenMetrics exposition (which carries histogram exemplars)
// when the request's Accept header asks for application/openmetrics-text.
func (h *Hub) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var reg *Registry
		if h != nil {
			reg = h.Registry
		}
		var err error
		if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", OpenMetricsContentType)
			err = WriteOpenMetrics(w, reg)
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			err = WriteProm(w, reg)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Server is a running HTTP endpoint (see ServeHandler): the accept loop
// runs in a goroutine, and Close shuts down gracefully, waits for the loop,
// and surfaces the first serve error.
type Server struct {
	// URL is the server's base address, e.g. http://127.0.0.1:9090.
	URL string

	srv      *http.Server
	done     chan struct{}
	serveErr error
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the hub's
// /metrics plus the /debug/pprof profiling endpoints until Close. A nil hub
// serves the process-wide Default hub.
func Serve(addr string, hub *Hub) (*Server, error) {
	if hub == nil {
		hub = Default()
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", hub.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return ServeHandler(addr, mux)
}

// ServeHandler binds addr and serves handler until Close. It returns once
// the listener is bound, so the URL is usable at once.
func ServeHandler(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: handler},
		done: make(chan struct{}),
	}
	//lint:ignore goroleak exit is bounded by Close: Shutdown unblocks Serve with ErrServerClosed and Close waits on <-s.done before returning
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Surfaced by Close: the serve goroutine has no other channel
			// back to the caller.
			s.serveErr = fmt.Errorf("telemetry: serve: %w", err)
		}
	}()
	return s, nil
}

// Close shuts the server down, waits for the serve goroutine, and returns
// the first serve error if one occurred.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownErr := s.srv.Shutdown(ctx)
	<-s.done
	if s.serveErr != nil {
		return s.serveErr
	}
	return shutdownErr
}
