// Package nvd simulates the National Vulnerability Database and the GitHub
// .patch endpoint, and implements the crawler that extracts security patches
// from them — the paper's Sec. III-A pipeline. The service is a real
// net/http server on a loopback listener, so the crawler exercises the same
// code path it would against nvd.nist.gov: fetch the CVE feed, select
// references tagged "Patch" that point at GitHub commit URLs, download the
// commit with a .patch suffix, parse it, and strip non-C/C++ files.
//
// The crawler is fault-tolerant: every fetch runs under a retry policy
// (exponential backoff with seeded jitter, Retry-After honoring, a shared
// circuit breaker — see internal/retry), and downloads that exhaust their
// attempt budget are quarantined with their attempt count and last error
// instead of silently vanishing.
package nvd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"patchdb/internal/diff"
	"patchdb/internal/gitrepo"
	"patchdb/internal/par"
	"patchdb/internal/retry"
	"patchdb/internal/telemetry"
)

// The registry metric families the crawler emits. The crawl publishes into
// the telemetry hub carried by the Crawl context (falling back to the
// process-wide default hub), so builds with a private hub stay isolated.
// Downloads, retries and breaker trips have no family of their own: the
// retry policy and breaker count attempts, retries and trips in the same
// registry, and the builder counts the crawl stage's downloaded items.
const (
	// MetricQuarantined counts downloads that exhausted their budget.
	MetricQuarantined = "crawl_quarantined_total"
	// MetricEmptyAfterClean counts patches with no C/C++ files left.
	MetricEmptyAfterClean = "crawl_empty_after_clean_total"
)

// Reference is one external hyperlink of a CVE entry.
type Reference struct {
	URL  string   `json:"url"`
	Tags []string `json:"tags"`
}

// Entry is one CVE record in the feed.
type Entry struct {
	ID          string      `json:"id"`
	Description string      `json:"description"`
	Published   string      `json:"published"`
	Severity    string      `json:"severity"`
	References  []Reference `json:"references"`
}

// Feed is the JSON document served at /feeds/cve.json.
type Feed struct {
	Entries []Entry `json:"cve_items"`
}

// Service serves a CVE feed plus GitHub-style commit patches from a
// repository store.
type Service struct {
	mu      sync.RWMutex
	entries []Entry
	store   *gitrepo.Store

	// Wrap, when non-nil before Start, wraps the service handler — the
	// seam the fault injector (internal/faults) plugs into.
	Wrap func(http.Handler) http.Handler

	server   *http.Server
	listener net.Listener
	done     chan struct{}
	serveErr error // first non-shutdown serve error, surfaced by Close
}

// NewService creates a service backed by the given repository store.
func NewService(store *gitrepo.Store) *Service {
	return &Service{store: store, done: make(chan struct{})}
}

// AddEntry registers a CVE entry in the feed.
func (s *Service) AddEntry(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, e)
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/feeds/cve.json":
		s.mu.RLock()
		feed := Feed{Entries: append([]Entry(nil), s.entries...)}
		s.mu.RUnlock()
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(feed); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case strings.HasPrefix(r.URL.Path, "/github/"):
		s.servePatch(w, r)
	default:
		http.NotFound(w, r)
	}
}

var _ http.Handler = (*Service)(nil)

// servePatch handles /github/{owner}/{repo}/commit/{hash}.patch.
func (s *Service) servePatch(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/github/")
	i := strings.Index(path, "/commit/")
	if i < 0 || !strings.HasSuffix(path, ".patch") {
		http.NotFound(w, r)
		return
	}
	hash := strings.TrimSuffix(path[i+len("/commit/"):], ".patch")
	c, ok := s.store.Lookup(hash)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, diff.Format(c.Patch()))
}

// Start binds the service to a loopback port and serves until Close.
func (s *Service) Start() (baseURL string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("nvd: listen: %w", err)
	}
	s.listener = ln
	handler := http.Handler(s)
	if s.Wrap != nil {
		handler = s.Wrap(handler)
	}
	s.server = &http.Server{Handler: handler}
	go func() {
		defer close(s.done)
		if serveErr := s.server.Serve(ln); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			// Recorded here, surfaced by Close: the serve goroutine has no
			// other channel back to the caller.
			s.serveErr = fmt.Errorf("nvd: serve: %w", serveErr)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// Close shuts the server down, waits for the serve goroutine to exit, and
// returns the first serve error if one occurred (otherwise the shutdown
// error, if any).
func (s *Service) Close() error {
	if s.server == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownErr := s.server.Shutdown(ctx)
	<-s.done
	if s.serveErr != nil {
		return s.serveErr
	}
	return shutdownErr
}

// GitHubCommitURL renders the canonical commit URL for a repo/hash pair,
// relative to a service base URL.
func GitHubCommitURL(baseURL, repo, hash string) string {
	return fmt.Sprintf("%s/github/%s/commit/%s", baseURL, repo, hash)
}

// commitURLRe matches the path of a GitHub commit reference URL (paper
// Sec. III-A): .../github/{owner}/{repo}/commit/{hash}
var commitURLRe = regexp.MustCompile(`/github/(.+)/commit/([0-9a-f]{7,40})$`)

// commitRef returns the repo and hash of a commit reference URL: one with
// no query or fragment whose path matches commitURLRe.
func commitRef(rawURL string) (repo, hash string, ok bool) {
	if strings.ContainsAny(rawURL, "?#") {
		return "", "", false
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", "", false
	}
	m := commitURLRe.FindStringSubmatch(u.EscapedPath())
	if m == nil {
		return "", "", false
	}
	return m[1], m[2], true
}

// CrawledPatch is one security patch extracted from the NVD.
type CrawledPatch struct {
	CVE   string
	Repo  string
	Hash  string
	Patch *diff.Patch
	// FilesDropped counts non-C/C++ file diffs removed during cleaning.
	FilesDropped int
}

// QuarantinedDownload is one patch download that exhausted its retry
// budget. Quarantined downloads are reported, not silently dropped, so a
// degraded crawl is visible and replayable.
type QuarantinedDownload struct {
	CVE  string
	Repo string
	Hash string
	URL  string
	// Attempts is how many fetches were made before giving up.
	Attempts int
	// LastError describes the final failure. Transport-level errors are
	// canonicalized (the OS text for an aborted connection varies), so the
	// quarantine report is byte-identical for a given seed and fault
	// configuration at any worker count.
	LastError string
}

// CrawlStats summarizes a crawl.
type CrawlStats struct {
	Entries         int // CVE entries in the feed
	WithPatchRefs   int // entries that had at least one Patch-tagged link
	Downloaded      int // patches fetched successfully (possibly after retries)
	EmptyAfterClean int // patches with no C/C++ files left
	Errors          int // downloads that ultimately failed: len(Quarantine)
	// Retries counts extra fetch attempts beyond each request's first.
	Retries int
	// BreakerTrips counts closed→open transitions of the crawl's shared
	// circuit breaker. Trips depend on request timing, so this is the one
	// field outside the determinism contract.
	BreakerTrips int
	// Quarantine lists the downloads that exhausted their attempt budget,
	// in feed order.
	Quarantine []QuarantinedDownload
}

// Crawler downloads security patches referenced by the NVD feed.
type Crawler struct {
	// BaseURL of the NVD service.
	BaseURL string
	// Client defaults to a 10s-timeout client.
	Client *http.Client
	// Concurrency bounds parallel patch downloads (default 8). The result
	// order is the feed's reference order regardless of the setting.
	Concurrency int
	// Progress, when non-nil, observes the fetch stage: done downloads
	// (including failures) out of the total job count. It is called from
	// fetch goroutines and must be safe for concurrent use. On
	// cancellation the count still reaches the total — drained and
	// unsubmitted jobs are reported as done.
	Progress func(done, total int)

	// MaxAttempts is the per-fetch attempt budget, including the first try
	// (0 = default 4; negative = a single attempt, no retries).
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry (0 = 50ms).
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff schedule and a server's Retry-After
	// hint (0 = 2s).
	RetryMaxDelay time.Duration
	// Seed drives the deterministic retry jitter.
	Seed int64
	// Breaker, when non-nil, replaces the crawl's own shared circuit
	// breaker (tests tune the threshold and cooldown through this).
	Breaker *retry.Breaker
}

// maxPatchBytes caps a .patch download body. Oversized patches fail
// permanently.
const maxPatchBytes = 4 << 20

// policy builds the retry policy every fetch of one Crawl runs under,
// sharing a single circuit breaker, both instrumented against reg.
func (c *Crawler) policy(reg *telemetry.Registry) (retry.Policy, *retry.Breaker) {
	br := c.Breaker
	if br == nil {
		br = retry.NewBreaker(retry.BreakerConfig{Registry: reg})
	}
	return retry.Policy{
		MaxAttempts: c.MaxAttempts,
		BaseDelay:   c.RetryBaseDelay,
		MaxDelay:    c.RetryMaxDelay,
		Seed:        c.Seed,
		Breaker:     br,
		Registry:    reg,
	}, br
}

// Crawl fetches the feed and downloads every Patch-tagged GitHub commit
// reference, returning cleaned C/C++ patches in feed order. Downloads run
// on Concurrency workers; each fetch is retried with backoff, and downloads
// that exhaust their budget land in CrawlStats.Quarantine.
// ctx cancellation aborts the crawl with a wrapped context error.
func (c *Crawler) Crawl(ctx context.Context) ([]*CrawledPatch, CrawlStats, error) {
	hub := telemetry.HubFromContext(ctx)
	var stats CrawlStats
	defer func() {
		// Publish whatever the crawl accomplished, including on error and
		// cancellation paths, so a degraded crawl is visible on /metrics.
		hub.Registry.Counter(MetricQuarantined).Add(float64(stats.Errors))
		hub.Registry.Counter(MetricEmptyAfterClean).Add(float64(stats.EmptyAfterClean))
	}()
	client := c.Client
	if client == nil {
		// Keep-alives are off: net/http transparently re-sends an
		// idempotent request whose reused connection died, which would
		// consume fault-injection budget invisibly and make attempt
		// accounting (and with it the determinism contract) depend on
		// connection-pool timing.
		client = &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{DisableKeepAlives: true},
		}
	}
	conc := c.Concurrency
	if conc <= 0 {
		conc = 8
	}
	policy, breaker := c.policy(hub.Registry)

	feedCtx, feedSpan := telemetry.Start(ctx, "nvd.fetch_feed")
	feed, attempts, err := c.fetchFeed(feedCtx, client, policy)
	feedSpan.SetAttr("attempts", attempts)
	feedSpan.End()
	if attempts > 1 {
		stats.Retries += attempts - 1
	}
	if err != nil {
		stats.BreakerTrips = breaker.Trips()
		return nil, stats, err
	}
	stats.Entries = len(feed.Entries)

	jobs, withRefs := patchJobs(feed.Entries)
	stats.WithPatchRefs = withRefs
	if c.Progress != nil {
		c.Progress(0, len(jobs))
	}
	_, dlSpan := telemetry.Start(ctx, "nvd.download")
	dlSpan.SetAttr("jobs", len(jobs))

	// Results (and quarantine entries) land at their job's index so the
	// output order is deterministic (feed order) no matter how the
	// downloads interleave.
	results := make([]*CrawledPatch, len(jobs))
	quarantined := make([]*QuarantinedDownload, len(jobs))
	var (
		mu   sync.Mutex // guards stats and done
		done int
	)
	progress := func(d int) {
		if c.Progress != nil {
			c.Progress(d, len(jobs))
		}
	}
	poolErr := par.For(ctx, len(jobs), conc, func(_, i int) {
		j := jobs[i]
		var cp *CrawledPatch
		attempts, fetchErr := policy.Do(ctx, j.url, func(ctx context.Context) error {
			p, err := c.fetchPatch(ctx, client, j.url)
			if err != nil {
				return err
			}
			cp = p
			return nil
		})
		mu.Lock()
		done++
		d := done
		if attempts > 1 {
			stats.Retries += attempts - 1
		}
		if fetchErr != nil {
			if ctx.Err() == nil {
				// A genuine failure, not cancellation noise.
				stats.Errors++
				quarantined[i] = &QuarantinedDownload{
					CVE: j.cve, Repo: j.repo, Hash: j.hash, URL: j.url,
					Attempts: attempts, LastError: canonicalError(fetchErr),
				}
			}
		} else {
			stats.Downloaded++
			cp.CVE = j.cve
			cp.Repo = j.repo
			cp.Hash = j.hash
			if len(cp.Patch.Files) == 0 {
				stats.EmptyAfterClean++
			} else {
				results[i] = cp
			}
		}
		mu.Unlock()
		progress(d)
	})
	if done < len(jobs) {
		// Jobs a cancellation kept from starting still complete the
		// progress count, so -progress reaches 100%.
		done = len(jobs)
		progress(done)
	}
	for _, q := range quarantined {
		if q != nil {
			stats.Quarantine = append(stats.Quarantine, *q)
		}
	}
	stats.BreakerTrips = breaker.Trips()
	dlSpan.End()
	if poolErr != nil {
		return nil, stats, fmt.Errorf("nvd: crawl canceled: %w", poolErr)
	}

	out := make([]*CrawledPatch, 0, len(results))
	for _, cp := range results {
		if cp != nil {
			out = append(out, cp)
		}
	}
	return out, stats, nil
}

// job is one patch download: a Patch-tagged commit reference of a CVE
// entry.
type job struct {
	cve  string
	repo string
	hash string
	url  string
}

// patchJobs lists the downloads a feed asks for, in feed order: one per
// Patch-tagged reference that commitRef accepts. withRefs counts the
// entries that have at least one.
func patchJobs(entries []Entry) (jobs []job, withRefs int) {
	for _, e := range entries {
		found := false
		for _, ref := range e.References {
			if !hasTag(ref.Tags, "Patch") {
				continue
			}
			repo, hash, ok := commitRef(ref.URL)
			if !ok {
				continue
			}
			found = true
			jobs = append(jobs, job{cve: e.ID, repo: repo, hash: hash, url: ref.URL + ".patch"})
		}
		if found {
			withRefs++
		}
	}
	return jobs, withRefs
}

func (c *Crawler) fetchFeed(ctx context.Context, client *http.Client, policy retry.Policy) (*Feed, int, error) {
	var feed *Feed
	attempts, err := policy.Do(ctx, "/feeds/cve.json", func(ctx context.Context) error {
		f, err := c.fetchFeedOnce(ctx, client)
		if err != nil {
			return err
		}
		feed = f
		return nil
	})
	return feed, attempts, err
}

func (c *Crawler) fetchFeedOnce(ctx context.Context, client *http.Client) (*Feed, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/feeds/cve.json", nil)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("nvd: build feed request: %w", err))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("nvd: fetch feed: %w", err)
	}
	defer resp.Body.Close()
	if err := statusError(resp, "feed"); err != nil {
		return nil, err
	}
	var feed Feed
	if err := json.NewDecoder(resp.Body).Decode(&feed); err != nil {
		// Truncated or corrupted payload; the next attempt may decode.
		return nil, fmt.Errorf("nvd: decode feed: %w", err)
	}
	return &feed, nil
}

// fetchPatch performs one download attempt. Transient failures (connection
// errors, 429/5xx, truncated or unparsable bodies) return plain errors the
// retry policy will re-attempt; conclusive ones (other HTTP statuses,
// oversized patches) are marked permanent.
func (c *Crawler) fetchPatch(ctx context.Context, client *http.Client, url string) (*CrawledPatch, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("nvd: build patch request: %w", err))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("nvd: fetch patch: %w", err)
	}
	defer resp.Body.Close()
	if err := statusError(resp, "patch"); err != nil {
		return nil, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPatchBytes+1))
	if err != nil {
		return nil, fmt.Errorf("nvd: read patch: %w", err)
	}
	if len(body) > maxPatchBytes {
		return nil, retry.Permanent(fmt.Errorf("nvd: patch too large: %s exceeds the %d-byte limit", url, maxPatchBytes))
	}
	p, err := diff.Parse(string(body))
	if err != nil {
		return nil, fmt.Errorf("nvd: parse patch: %w", err)
	}
	before := len(p.Files)
	cleaned := p.StripNonCFamily()
	return &CrawledPatch{Patch: cleaned, FilesDropped: before - len(cleaned.Files)}, nil
}

// statusError classifies a non-200 response: 429 carries the server's
// Retry-After hint, 5xx is transient, anything else is permanent.
func statusError(resp *http.Response, what string) error {
	switch {
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusTooManyRequests:
		err := fmt.Errorf("nvd: %s status %s", what, resp.Status)
		if after, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return retry.WithRetryAfter(err, after)
		}
		return err
	case resp.StatusCode >= 500:
		return fmt.Errorf("nvd: %s status %s", what, resp.Status)
	default:
		return retry.Permanent(fmt.Errorf("nvd: %s status %s", what, resp.Status))
	}
}

// parseRetryAfter accepts delay seconds (integral or fractional) or an
// HTTP date. It rejects a number of seconds that is not finite or does not
// fit a time.Duration.
func parseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.ParseFloat(h, 64); err == nil {
		ns := secs * float64(time.Second)
		if secs < 0 || math.IsNaN(ns) || ns >= math.MaxInt64 {
			return 0, false
		}
		return time.Duration(ns), true
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// canonicalError renders an error for the quarantine report. Transport
// failures (url.Error) are reduced to a stable description: whether an
// aborted connection surfaces as EOF or ECONNRESET depends on timing, and
// the quarantine report must be identical for identical seeds.
func canonicalError(err error) string {
	var uerr *url.Error
	if errors.As(err, &uerr) {
		reason := "connection failure"
		if uerr.Timeout() {
			reason = "timeout"
		}
		return fmt.Sprintf("nvd: fetch %s: %s", strings.ToLower(uerr.Op), reason)
	}
	return err.Error()
}

func hasTag(tags []string, want string) bool {
	for _, t := range tags {
		if strings.EqualFold(t, want) {
			return true
		}
	}
	return false
}
