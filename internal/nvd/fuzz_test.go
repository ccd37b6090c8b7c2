package nvd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"patchdb/internal/gitrepo"
	"patchdb/internal/telemetry"
)

// inProcess answers every request with handler, whatever host its URL
// names, so a fuzzed feed can reference any host and no request opens a
// socket. It records each request's URL as the crawler built it.
type inProcess struct {
	handler http.Handler

	mu   sync.Mutex
	urls []string
}

func (p *inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	p.mu.Lock()
	p.urls = append(p.urls, r.URL.String())
	p.mu.Unlock()
	rec := httptest.NewRecorder()
	p.handler.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestCrawlCapsRetryAfter serves the feed behind one 429 that asks for an
// hour's wait, through the in-process handler FuzzCrawlFeed uses: the
// crawler must retry after RetryMaxDelay, well inside the deadline.
func TestCrawlCapsRetryAfter(t *testing.T) {
	store := gitrepo.NewStore()
	repo := gitrepo.NewRepo("acme/libfoo")
	if err := store.Add(repo); err != nil {
		t.Fatal(err)
	}
	repo.SeedFile("src/a.c", "int x;\n")
	c1 := repo.Commit("alice", "2019-01-01", "fix overflow", map[string]string{"src/a.c": "long x;\n"})
	const base = "http://nvd.test"
	svc := NewService(store)
	svc.AddEntry(Entry{ID: "CVE-2019-0001", References: []Reference{
		{URL: GitHubCommitURL(base, "acme/libfoo", c1.Hash), Tags: []string{"Patch"}},
	}})
	// The crawler fetches the feed before any patch, so feedHits needs no
	// lock.
	var feedHits int
	tr := &inProcess{handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/feeds/cve.json" {
			feedHits++
			if feedHits == 1 {
				w.Header().Set("Retry-After", "3600")
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
		}
		svc.ServeHTTP(w, r)
	})}
	c := &Crawler{BaseURL: base, Client: &http.Client{Transport: tr}, Seed: 1, RetryMaxDelay: 2 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	patches, st, err := c.Crawl(ctx)
	if err != nil {
		t.Fatalf("crawl after %v: %v", time.Since(start), err)
	}
	if len(patches) != 1 || st.Retries != 1 || feedHits != 2 {
		t.Fatalf("%d patches, %d retries, %d feed requests; want 1, 1, 2", len(patches), st.Retries, feedHits)
	}
}

// FuzzCrawlFeed crawls a fuzzed feed document, served behind one 429
// answer with a fuzzed Retry-After header, whose patches an nvd.Service
// serves in process. The crawl must not panic, must download only the
// feed's Patch-tagged commit references (each a commitURLRe path with no
// query or fragment), and
// its CrawlStats counts must add up.
func FuzzCrawlFeed(f *testing.F) {
	store := gitrepo.NewStore()
	repo := gitrepo.NewRepo("acme/libfoo")
	if err := store.Add(repo); err != nil {
		f.Fatal(err)
	}
	repo.SeedFile("src/a.c", "int x;\nint y;\n")
	c1 := repo.Commit("alice", "2019-01-01", "fix overflow", map[string]string{"src/a.c": "int x;\nlong y;\n"})
	repo.SeedFile("docs/README", "hello\n")
	c2 := repo.Commit("bob", "2019-02-02", "docs only", map[string]string{"docs/README": "hello world\n"})
	ref := func(hash string, tags ...string) Reference {
		return Reference{URL: "http://nvd.test/github/acme/libfoo/commit/" + hash, Tags: tags}
	}
	seed, err := json.Marshal(Feed{Entries: []Entry{
		{ID: "CVE-2019-0001", References: []Reference{ref(c1.Hash, "Patch"), ref(c2.Hash, "patch")}},
		{ID: "CVE-2019-0002", References: []Reference{ref(c1.Hash, "Advisory"), ref("0000000", "Patch")}},
		{ID: "CVE-2019-0003"},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, "0")
	f.Add(seed, "0.001")
	f.Add(seed, "")
	f.Add(seed, "Mon, 02 Jan 2006 15:04:05 GMT")
	f.Add([]byte(`{"cve_items":[{"id":"x","references":[{"url":"ftp://h/x#/github/a/commit/abcdef1","tags":["Patch"]}]}]}`), "1e400")
	f.Add([]byte(`{"cve_items":[{"references":[{"url":"/github//commit/abcdef1","tags":["PATCH"]}]}]}`), "-1")
	f.Add([]byte(`{"cve_items":[{"id":"x","references":[{"url":"http://h/x?/github/a/commit/abcdef1","tags":["Patch"]}]}]}`), "Inf")
	f.Add([]byte(`{"cve_items": [`), "NaN")
	f.Add([]byte(`null`), "0")
	f.Add([]byte(`{} trailing`), "0")

	f.Fuzz(func(t *testing.T, feed []byte, retryAfter string) {
		// The crawler fetches the feed before any patch, so feedHits
		// needs no lock.
		var feedHits int
		svc := NewService(store)
		tr := &inProcess{handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/feeds/cve.json" {
				feedHits++
				if feedHits == 1 {
					w.Header().Set("Retry-After", retryAfter)
					w.WriteHeader(http.StatusTooManyRequests)
					return
				}
				w.Write(feed)
				return
			}
			svc.ServeHTTP(w, r)
		})}
		const base = "http://nvd.test"
		c := &Crawler{
			BaseURL: base, Client: &http.Client{Transport: tr},
			Concurrency: 2, MaxAttempts: 2, Seed: 1,
			RetryBaseDelay: time.Millisecond, RetryMaxDelay: 2 * time.Millisecond,
		}
		// A long Retry-After may outlast the deadline; the crawl then
		// fails with the context's error, which is all it can do.
		ctx, cancel := context.WithTimeout(telemetry.WithHub(context.Background(), telemetry.NewHub()), 500*time.Millisecond)
		defer cancel()
		patches, st, err := c.Crawl(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			return
		}

		// Decoded as the crawler decodes it: the first JSON value.
		var doc Feed
		if json.NewDecoder(bytes.NewReader(feed)).Decode(&doc) != nil {
			if err == nil {
				t.Fatalf("undecodable feed %q crawled without error", feed)
			}
			return
		}
		if err != nil {
			t.Fatalf("crawl of a decodable feed: %v", err)
		}
		jobs, withRefs := patchJobs(doc.Entries)
		want := map[string]bool{}
		for _, j := range jobs {
			u, err := url.Parse(strings.TrimSuffix(j.url, ".patch"))
			if err != nil || u.RawQuery != "" || u.Fragment != "" || !commitURLRe.MatchString(u.EscapedPath()) {
				t.Fatalf("job URL %q is not a commitURLRe path without query or fragment", j.url)
			}
			if u, err := url.Parse(j.url); err == nil {
				want[u.String()] = true
			}
		}
		for _, u := range tr.urls {
			if u != base+"/feeds/cve.json" && !want[u] {
				t.Fatalf("crawler fetched %q, which is no job of the feed", u)
			}
		}
		switch {
		case st.Entries != len(doc.Entries):
			t.Fatalf("Entries = %d, feed has %d", st.Entries, len(doc.Entries))
		case st.WithPatchRefs != withRefs:
			t.Fatalf("WithPatchRefs = %d, want %d", st.WithPatchRefs, withRefs)
		case st.Downloaded+st.Errors != len(jobs):
			t.Fatalf("Downloaded %d + Errors %d != %d jobs", st.Downloaded, st.Errors, len(jobs))
		case st.Errors != len(st.Quarantine):
			t.Fatalf("Errors %d, len(Quarantine) %d differ", st.Errors, len(st.Quarantine))
		case len(patches)+st.EmptyAfterClean != st.Downloaded:
			t.Fatalf("%d patches + %d empty != %d downloaded", len(patches), st.EmptyAfterClean, st.Downloaded)
		case st.Retries < 1:
			t.Fatalf("Retries = %d, want the feed's 429 counted", st.Retries)
		}
		for _, p := range patches {
			if len(p.Patch.Files) == 0 {
				t.Fatalf("crawled patch %s has no files", p.Hash)
			}
		}
	})
}
