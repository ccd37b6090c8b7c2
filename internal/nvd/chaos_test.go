package nvd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"patchdb/internal/diff"
	"patchdb/internal/faults"
	"patchdb/internal/gitrepo"
	"patchdb/internal/retry"
)

// chaosWorld builds a store with n distinct C-touching commits, one feed
// entry per commit, and a service wrapped in the given fault injector.
func chaosWorld(t *testing.T, n int, cfg faults.Config) (*faults.Injector, string, []string) {
	t.Helper()
	store := gitrepo.NewStore()
	repo := gitrepo.NewRepo("acme/chaos")
	if err := store.Add(repo); err != nil {
		t.Fatal(err)
	}
	repo.SeedFile("src/m.c", "int v0;\n")
	hashes := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c := repo.Commit("alice", "2021-01-01", fmt.Sprintf("fix %d", i),
			map[string]string{"src/m.c": fmt.Sprintf("int v%d;\n", i+1)})
		hashes = append(hashes, c.Hash)
	}
	inj := faults.New(cfg)
	svc := NewService(store)
	svc.Wrap = inj.Wrap
	base, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	for i, h := range hashes {
		svc.AddEntry(Entry{ID: fmt.Sprintf("CVE-2021-%04d", i), References: []Reference{
			{URL: GitHubCommitURL(base, "acme/chaos", h), Tags: []string{"Patch"}},
		}})
	}
	return inj, base, hashes
}

// fastCrawler returns a crawler tuned for chaos tests: tiny backoff, a
// breaker with a tiny cooldown, default (4) attempts.
func fastCrawler(base string, workers int) *Crawler {
	return &Crawler{
		BaseURL:        base,
		Concurrency:    workers,
		Seed:           42,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
		Breaker:        retry.NewBreaker(retry.BreakerConfig{Cooldown: time.Millisecond}),
	}
}

// TestChaosFaultClassesRecovered drives every fault class at rate 1 with a
// consecutive-fault cap below the attempt budget: each class must be
// retried through to recovery, not dropped.
func TestChaosFaultClassesRecovered(t *testing.T) {
	for _, class := range faults.AllClasses {
		class := class
		t.Run(string(class), func(t *testing.T) {
			t.Parallel()
			_, base, hashes := chaosWorld(t, 6, faults.Config{
				Seed:           1,
				Routes:         []faults.Route{{Rate: 1, Classes: []faults.Class{class}}},
				RetryAfter:     2 * time.Millisecond,
				HangFor:        10 * time.Millisecond,
				MaxConsecutive: 2, // attempts 1-2 fault, attempt 3 passes
			})
			crawler := fastCrawler(base, 4)
			patches, stats, err := crawler.Crawl(context.Background())
			if err != nil {
				t.Fatalf("crawl under %s faults: %v", class, err)
			}
			if len(patches) != len(hashes) {
				t.Fatalf("recovered %d/%d patches under %s faults (quarantine: %+v)",
					len(patches), len(hashes), class, stats.Quarantine)
			}
			if len(stats.Quarantine) != 0 || stats.Errors != 0 {
				t.Errorf("quarantined=%d errors=%d, want 0/0", len(stats.Quarantine), stats.Errors)
			}
			// Feed + every patch needed exactly 2 retries each.
			wantRetries := 2 * (len(hashes) + 1)
			if stats.Retries != wantRetries {
				t.Errorf("retries = %d, want %d", stats.Retries, wantRetries)
			}
		})
	}
}

// TestChaosFaultClassesQuarantined drives every class at rate 1 with no cap
// and an exhausted budget: every download must land in quarantine with its
// attempt count and a class-appropriate last error.
func TestChaosFaultClassesQuarantined(t *testing.T) {
	lastErrWant := map[faults.Class]string{
		faults.RateLimit:   "status 429",
		faults.ServerError: "status 500",
		faults.Hang:        "connection failure",
		faults.Truncate:    "read patch",
		faults.Corrupt:     "parse patch",
	}
	for _, class := range faults.AllClasses {
		class := class
		t.Run(string(class), func(t *testing.T) {
			t.Parallel()
			// Faults only on the patch route so the feed fetch succeeds.
			_, base, hashes := chaosWorld(t, 4, faults.Config{
				Seed:       1,
				Routes:     []faults.Route{{Prefix: "/github/", Rate: 1, Classes: []faults.Class{class}}},
				RetryAfter: 2 * time.Millisecond,
				HangFor:    10 * time.Millisecond,
			})
			crawler := fastCrawler(base, 2)
			crawler.MaxAttempts = 2
			patches, stats, err := crawler.Crawl(context.Background())
			if err != nil {
				t.Fatalf("crawl: %v", err) // a degraded crawl is not an error
			}
			if len(patches) != 0 || stats.Downloaded != 0 {
				t.Fatalf("downloaded %d patches under unrecoverable %s faults", stats.Downloaded, class)
			}
			if len(stats.Quarantine) != len(hashes) || stats.Errors != len(hashes) {
				t.Fatalf("quarantined=%d errors=%d, want %d", len(stats.Quarantine), stats.Errors, len(hashes))
			}
			for i, q := range stats.Quarantine {
				if q.Attempts != 2 {
					t.Errorf("quarantine[%d].Attempts = %d, want 2", i, q.Attempts)
				}
				if !strings.Contains(q.LastError, lastErrWant[class]) {
					t.Errorf("quarantine[%d].LastError = %q, want substring %q", i, q.LastError, lastErrWant[class])
				}
				if q.Hash != hashes[i] || q.CVE == "" || q.URL == "" {
					t.Errorf("quarantine[%d] incomplete: %+v", i, q)
				}
			}
		})
	}
}

// TestChaosRecoveryRatio is the acceptance bar: at a 30% transient-failure
// rate with the default attempt budget, >= 95% of patches are recovered and
// the remainder is quarantined, not lost.
func TestChaosRecoveryRatio(t *testing.T) {
	_, base, hashes := chaosWorld(t, 100, faults.Config{
		Seed:       9,
		Routes:     []faults.Route{{Rate: 0.3}},
		RetryAfter: 2 * time.Millisecond,
		HangFor:    10 * time.Millisecond,
	})
	crawler := fastCrawler(base, 8)
	patches, stats, err := crawler.Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recovered := float64(stats.Downloaded) / float64(len(hashes))
	if recovered < 0.95 {
		t.Fatalf("recovered %.1f%% of %d patches, want >= 95%% (quarantined %d)",
			100*recovered, len(hashes), len(stats.Quarantine))
	}
	if stats.Downloaded+len(stats.Quarantine) != len(hashes) {
		t.Errorf("downloaded %d + quarantined %d != %d jobs: downloads lost without a trace",
			stats.Downloaded, len(stats.Quarantine), len(hashes))
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded at a 30% fault rate")
	}
	t.Logf("rate 0.3: recovered %d/%d (%.1f%%), %d retries, %d quarantined, %d breaker trips",
		stats.Downloaded, len(hashes), 100*recovered, stats.Retries, len(stats.Quarantine), stats.BreakerTrips)
	_ = patches
}

// stripBase removes the per-run loopback port from quarantine URLs so
// reports from two service instances are comparable.
func stripBase(qs []QuarantinedDownload, base string) []QuarantinedDownload {
	out := append([]QuarantinedDownload(nil), qs...)
	for i := range out {
		out[i].URL = strings.TrimPrefix(out[i].URL, base)
	}
	return out
}

// TestChaosDeterministicAcrossWorkers is the determinism contract under
// faults: the same seed and fault config yield a byte-identical patch set
// and quarantine report at Workers=1 and Workers=GOMAXPROCS.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	// Hang is excluded: its quarantine entries are canonicalized (tested
	// above), but its wall-clock cost at Workers=1 makes the test slow.
	classes := []faults.Class{faults.RateLimit, faults.ServerError, faults.Truncate, faults.Corrupt}
	run := func(workers int) ([]*CrawledPatch, CrawlStats, string) {
		// The feed is exempt: at this rate a 2-attempt budget would
		// sometimes exhaust on the feed and fail the whole crawl.
		_, base, _ := chaosWorld(t, 60, faults.Config{
			Seed: 5,
			Routes: []faults.Route{
				{Prefix: "/feeds/", Rate: 0},
				{Prefix: "/github/", Rate: 0.45, Classes: classes},
			},
			RetryAfter: 2 * time.Millisecond,
		})
		crawler := fastCrawler(base, workers)
		crawler.MaxAttempts = 2 // tight budget so some downloads quarantine
		patches, stats, err := crawler.Crawl(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return patches, stats, base
	}

	p1, s1, base1 := run(1)
	pN, sN, baseN := run(runtime.GOMAXPROCS(0))

	if len(p1) != len(pN) {
		t.Fatalf("patch counts differ: %d vs %d", len(p1), len(pN))
	}
	for i := range p1 {
		if p1[i].Hash != pN[i].Hash || diff.Format(p1[i].Patch) != diff.Format(pN[i].Patch) {
			t.Fatalf("patch %d differs across worker counts", i)
		}
	}
	if s1.Downloaded != sN.Downloaded || s1.Errors != sN.Errors ||
		s1.Retries != sN.Retries || len(s1.Quarantine) != len(sN.Quarantine) {
		t.Fatalf("stats differ: %+v vs %+v", s1, sN)
	}
	q1, qN := stripBase(s1.Quarantine, base1), stripBase(sN.Quarantine, baseN)
	if !reflect.DeepEqual(q1, qN) {
		t.Fatalf("quarantine reports differ:\n%+v\nvs\n%+v", q1, qN)
	}
	if len(s1.Quarantine) == 0 {
		t.Error("test too weak: nothing quarantined, raise the rate or cut the budget")
	}
	t.Logf("deterministic under faults: %d downloaded, %d quarantined, %d retries",
		s1.Downloaded, len(s1.Quarantine), s1.Retries)
}

// TestChaosBreakerTripsUnderTotalOutage: with the patch route hard down,
// the shared breaker must actually trip.
func TestChaosBreakerTripsUnderTotalOutage(t *testing.T) {
	_, base, _ := chaosWorld(t, 12, faults.Config{
		Seed:   1,
		Routes: []faults.Route{{Prefix: "/github/", Rate: 1, Classes: []faults.Class{faults.ServerError}}},
	})
	crawler := fastCrawler(base, 4)
	crawler.Breaker = retry.NewBreaker(retry.BreakerConfig{FailureThreshold: 3, Cooldown: time.Millisecond})
	crawler.MaxAttempts = 2
	_, stats, err := crawler.Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.BreakerTrips == 0 {
		t.Error("breaker never tripped during a total patch-route outage")
	}
	if len(stats.Quarantine) != 12 {
		t.Errorf("quarantined = %d, want 12", len(stats.Quarantine))
	}
}

// TestChaosFeedRetriedAndQuarantineEmpty: feed-route faults are retried
// like any other fetch; a recovered feed leaves no quarantine residue.
func TestChaosFeedRecovery(t *testing.T) {
	_, base, hashes := chaosWorld(t, 3, faults.Config{
		Seed:           1,
		Routes:         []faults.Route{{Prefix: "/feeds/", Rate: 1, Classes: []faults.Class{faults.Corrupt}}},
		MaxConsecutive: 2,
	})
	crawler := fastCrawler(base, 2)
	patches, stats, err := crawler.Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) != len(hashes) || stats.Retries != 2 || len(stats.Quarantine) != 0 {
		t.Errorf("patches=%d retries=%d quarantined=%d, want %d/2/0",
			len(patches), stats.Retries, len(stats.Quarantine), len(hashes))
	}
}

// TestChaosFeedExhaustionFailsCrawl: a feed that never recovers fails the
// whole crawl (there is nothing to degrade to without a feed).
func TestChaosFeedExhaustionFailsCrawl(t *testing.T) {
	_, base, _ := chaosWorld(t, 3, faults.Config{
		Seed:   1,
		Routes: []faults.Route{{Prefix: "/feeds/", Rate: 1, Classes: []faults.Class{faults.ServerError}}},
	})
	crawler := fastCrawler(base, 2)
	crawler.MaxAttempts = 2
	_, stats, err := crawler.Crawl(context.Background())
	if err == nil || !strings.Contains(err.Error(), "feed status 500") {
		t.Fatalf("err = %v, want feed status 500", err)
	}
	if stats.Retries != 1 {
		t.Errorf("feed retries = %d, want 1", stats.Retries)
	}
}

// TestPatchTooLarge: an oversized patch fails permanently with a
// descriptive error instead of being retried or buffered unboundedly.
func TestPatchTooLarge(t *testing.T) {
	// Every patch body is one byte over the cap.
	huge := bytes.Repeat([]byte("x"), maxPatchBytes+1)
	var feed []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/feeds/cve.json" {
			w.Write(feed)
			return
		}
		w.Write(huge)
	}))
	defer srv.Close()
	hashes := []string{"abcdef1", "abcdef2"}
	var entries []Entry
	for i, h := range hashes {
		entries = append(entries, Entry{ID: fmt.Sprintf("CVE-2021-%04d", i), References: []Reference{
			{URL: GitHubCommitURL(srv.URL, "acme/huge", h), Tags: []string{"Patch"}},
		}})
	}
	feed, err := json.Marshal(Feed{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := fastCrawler(srv.URL, 2).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Downloaded != 0 || len(stats.Quarantine) != len(hashes) {
		t.Fatalf("downloaded=%d quarantined=%d, want 0/%d", stats.Downloaded, len(stats.Quarantine), len(hashes))
	}
	for _, q := range stats.Quarantine {
		if !strings.Contains(q.LastError, "patch too large") {
			t.Errorf("LastError = %q, want 'patch too large'", q.LastError)
		}
		if q.Attempts != 1 {
			t.Errorf("attempts = %d, want 1 (permanent errors are not retried)", q.Attempts)
		}
	}
}
