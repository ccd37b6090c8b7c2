package store

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"time"

	"patchdb/internal/telemetry"
)

// statusPage is the template input of /debug/status.
type statusPage struct {
	Now        string
	Uptime     string
	Version    uint64
	Records    int
	SnapAge    string
	ReloadErr  string
	ReloadAt   string
	QPS5m      string
	P50        string
	P99        string
	ErrorRate  string
	Healthy    bool
	Objectives []telemetry.Verdict
	Endpoints  []endpointRow
}

// endpointRow is one per-endpoint latency line of the status table.
type endpointRow struct {
	Endpoint string
	Count    uint64
	P50      string
	P99      string
}

// statusTemplate is the whole dashboard: one self-contained HTML page with
// inline styles, no external assets, so it renders from an air-gapped
// operator laptop as well as from a browser next to the pod.
var statusTemplate = template.Must(template.New("status").Funcs(template.FuncMap{
	"mulf": func(a, b float64) float64 { return a * b },
}).Parse(`<!DOCTYPE html>
<html><head><title>patchdb-serve status</title>
<style>
body{font-family:system-ui,sans-serif;margin:2em;max-width:60em}
h1{font-size:1.4em} h2{font-size:1.1em;margin-top:1.5em}
table{border-collapse:collapse;margin-top:.5em}
td,th{border:1px solid #bbb;padding:.3em .8em;text-align:left}
.ok{color:#0a0} .bad{color:#c00;font-weight:bold}
.kv td:first-child{color:#555}
</style></head><body>
<h1>patchdb-serve {{if .Healthy}}<span class="ok">healthy</span>{{else}}<span class="bad">burning error budget</span>{{end}}</h1>
<table class="kv">
<tr><td>time</td><td>{{.Now}}</td></tr>
<tr><td>uptime</td><td>{{.Uptime}}</td></tr>
<tr><td>snapshot version</td><td>{{.Version}}</td></tr>
<tr><td>snapshot records</td><td>{{.Records}}</td></tr>
<tr><td>snapshot age</td><td>{{.SnapAge}}</td></tr>
{{if .ReloadAt}}<tr><td>last reload</td><td>{{.ReloadAt}}</td></tr>{{end}}
{{if .ReloadErr}}<tr><td>last reload error</td><td class="bad">{{.ReloadErr}}</td></tr>{{end}}
<tr><td>QPS (5m)</td><td>{{.QPS5m}}</td></tr>
<tr><td>latency p50 / p99</td><td>{{.P50}} / {{.P99}}</td></tr>
<tr><td>error rate (5m)</td><td>{{.ErrorRate}}</td></tr>
</table>
<h2>Objectives</h2>
<table>
<tr><th>SLO</th><th>target</th><th>state</th><th>windows (burn rate)</th></tr>
{{range .Objectives}}<tr><td>{{.Name}}{{if .Threshold}} ≤ {{.Threshold}}{{end}}</td><td>{{printf "%g%%" (mulf .Target 100)}}</td>
<td>{{if .Healthy}}<span class="ok">healthy</span>{{else}}<span class="bad">burning{{if .FastBurn}} (fast){{end}}{{if .SlowBurn}} (slow){{end}}</span>{{end}}</td>
<td>{{range .Windows}}{{.Window}}: {{printf "%.2f" .BurnRate}} {{end}}</td></tr>
{{end}}</table>
<h2>Endpoints</h2>
<table>
<tr><th>endpoint</th><th>requests</th><th>p50</th><th>p99</th></tr>
{{range .Endpoints}}<tr><td>{{.Endpoint}}</td><td>{{.Count}}</td><td>{{.P50}}</td><td>{{.P99}}</td></tr>
{{end}}</table>
<p>See <a href="/debug/slo">/debug/slo</a>, <a href="/debug/logs">/debug/logs</a>, <a href="/metrics">/metrics</a>.</p>
</body></html>
`))

// histogramQuantile estimates quantile q (0..1) from a cumulative-bucket
// snapshot by linear interpolation inside the target bucket; the overflow
// bucket clamps to the largest finite bound.
func histogramQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: no finite upper edge to interpolate toward.
			if len(h.Bounds) == 0 {
				return 0
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// mergeHistograms sums compatible (same-bounds) histogram snapshots into one.
func mergeHistograms(hs []telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	for _, h := range hs {
		if out.Counts == nil {
			out = telemetry.HistogramSnapshot{
				Bounds: h.Bounds,
				Counts: make([]uint64, len(h.Counts)),
			}
		}
		if len(h.Counts) != len(out.Counts) {
			continue
		}
		for i, c := range h.Counts {
			out.Counts[i] += c
		}
		out.Sum += h.Sum
		out.Count += h.Count
	}
	return out
}

// statusHandler renders the operator dashboard.
func (s *api) statusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		h := s.store.Health()
		page := statusPage{
			Now:        now.UTC().Format(time.RFC3339),
			Uptime:     now.Sub(s.started).Round(time.Second).String(),
			Version:    h.Version,
			Records:    h.Records,
			SnapAge:    "never loaded",
			ReloadErr:  h.LastReloadError,
			Healthy:    true,
			Objectives: s.slos.Evaluate(),
		}
		if !h.LoadedAt.IsZero() {
			page.SnapAge = now.Sub(h.LoadedAt).Round(time.Second).String()
		}
		if !h.LastReloadAt.IsZero() {
			page.ReloadAt = h.LastReloadAt.UTC().Format(time.RFC3339)
		}
		for _, v := range page.Objectives {
			if !v.Healthy {
				page.Healthy = false
			}
			if v.Threshold != "" {
				continue // QPS/error rate come from the availability objective
			}
			for _, wb := range v.Windows {
				if wb.Window == (5 * time.Minute).String() {
					page.QPS5m = fmt.Sprintf("%.2f", float64(wb.Total)/(5*time.Minute).Seconds())
					page.ErrorRate = fmt.Sprintf("%.3f%%", wb.ErrorRate*100)
				}
			}
		}
		var all []telemetry.HistogramSnapshot
		perEndpoint := map[string]telemetry.HistogramSnapshot{}
		for _, p := range s.reg.Snapshot() {
			if p.Name != MetricRequestSeconds || p.Histogram == nil {
				continue
			}
			all = append(all, *p.Histogram)
			for _, l := range p.Labels {
				if l.Key == "endpoint" {
					perEndpoint[l.Value] = *p.Histogram
				}
			}
		}
		merged := mergeHistograms(all)
		page.P50 = formatSeconds(histogramQuantile(merged, 0.50))
		page.P99 = formatSeconds(histogramQuantile(merged, 0.99))
		names := make([]string, 0, len(perEndpoint))
		for name := range perEndpoint {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			eh := perEndpoint[name]
			page.Endpoints = append(page.Endpoints, endpointRow{
				Endpoint: name,
				Count:    eh.Count,
				P50:      formatSeconds(histogramQuantile(eh, 0.50)),
				P99:      formatSeconds(histogramQuantile(eh, 0.99)),
			})
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := statusTemplate.Execute(w, page); err != nil {
			// Headers are out; the broken page is its own error report.
			_ = err
		}
	})
}

// formatSeconds renders a duration-in-seconds float compactly (ms under 1s).
func formatSeconds(s float64) string {
	if s < 1 {
		return fmt.Sprintf("%.1fms", s*1000)
	}
	return fmt.Sprintf("%.3fs", s)
}
