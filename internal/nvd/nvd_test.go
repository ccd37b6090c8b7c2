package nvd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"patchdb/internal/gitrepo"
)

// world builds a store with one repo and two commits and a started service.
func world(t *testing.T) (*Service, string, *gitrepo.Commit, *gitrepo.Commit) {
	t.Helper()
	store := gitrepo.NewStore()
	repo := gitrepo.NewRepo("acme/libfoo")
	if err := store.Add(repo); err != nil {
		t.Fatal(err)
	}
	repo.SeedFile("src/a.c", "int x;\nint y;\n")
	c1 := repo.Commit("alice", "2019-01-01", "fix overflow", map[string]string{"src/a.c": "int x;\nlong y;\n"})
	repo.SeedFile("docs/README", "hello\n")
	c2 := repo.Commit("bob", "2019-02-02", "docs only", map[string]string{"docs/README": "hello world\n"})

	svc := NewService(store)
	base, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return svc, base, c1, c2
}

func TestServePatch(t *testing.T) {
	_, base, c1, _ := world(t)
	resp, err := http.Get(GitHubCommitURL(base, "acme/libfoo", c1.Hash) + ".patch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "diff --git a/src/a.c") {
		t.Errorf("patch body = %q", body)
	}
}

func TestServeUnknownAndBadPaths(t *testing.T) {
	_, base, _, _ := world(t)
	for _, path := range []string{
		"/github/acme/libfoo/commit/0000000000000000000000000000000000000000.patch",
		"/github/acme/libfoo/commit/nothash", // no .patch suffix
		"/other/endpoint",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %s, want 404", path, resp.Status)
		}
	}
}

func TestCrawlEndToEnd(t *testing.T) {
	svc, base, c1, c2 := world(t)
	svc.AddEntry(Entry{
		ID: "CVE-2019-0001",
		References: []Reference{
			{URL: GitHubCommitURL(base, "acme/libfoo", c1.Hash), Tags: []string{"Patch"}},
			{URL: "https://vendor.example.com/advisory", Tags: []string{"Vendor Advisory"}},
		},
	})
	// An entry whose patch link points at a docs-only commit: downloads but
	// is dropped after C/C++ cleaning.
	svc.AddEntry(Entry{
		ID: "CVE-2019-0002",
		References: []Reference{
			{URL: GitHubCommitURL(base, "acme/libfoo", c2.Hash), Tags: []string{"Patch"}},
		},
	})
	// An entry with no patch-tagged reference at all.
	svc.AddEntry(Entry{ID: "CVE-2019-0003", References: []Reference{
		{URL: "https://example.com/x", Tags: []string{"Exploit"}},
	}})
	// An entry with a dangling patch link.
	svc.AddEntry(Entry{ID: "CVE-2019-0004", References: []Reference{
		{URL: GitHubCommitURL(base, "acme/libfoo", strings.Repeat("0", 40)), Tags: []string{"Patch"}},
	}})

	crawler := &Crawler{BaseURL: base}
	patches, stats, err := crawler.Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 4 {
		t.Errorf("entries = %d", stats.Entries)
	}
	if stats.WithPatchRefs != 3 {
		t.Errorf("with patch refs = %d", stats.WithPatchRefs)
	}
	if stats.Downloaded != 2 {
		t.Errorf("downloaded = %d", stats.Downloaded)
	}
	if stats.EmptyAfterClean != 1 {
		t.Errorf("empty after clean = %d", stats.EmptyAfterClean)
	}
	if stats.Errors != 1 {
		t.Errorf("errors = %d", stats.Errors)
	}
	if len(patches) != 1 {
		t.Fatalf("patches = %d", len(patches))
	}
	p := patches[0]
	if p.CVE != "CVE-2019-0001" || p.Hash != c1.Hash || p.Repo != "acme/libfoo" {
		t.Errorf("patch = %+v", p)
	}
	if len(p.Patch.Files) != 1 || p.Patch.Files[0].NewPath != "src/a.c" {
		t.Errorf("patch files = %+v", p.Patch.Files)
	}
}

func TestCrawlTagCaseInsensitive(t *testing.T) {
	svc, base, c1, _ := world(t)
	svc.AddEntry(Entry{ID: "CVE-1", References: []Reference{
		{URL: GitHubCommitURL(base, "acme/libfoo", c1.Hash), Tags: []string{"patch"}},
	}})
	crawler := &Crawler{BaseURL: base}
	patches, _, err := crawler.Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) != 1 {
		t.Errorf("lowercase tag not matched")
	}
}

func TestCrawlBadBaseURL(t *testing.T) {
	crawler := &Crawler{BaseURL: "http://127.0.0.1:1"} // nothing listens there
	if _, _, err := crawler.Crawl(context.Background()); err == nil {
		t.Error("crawl against dead server succeeded")
	}
}

func TestCrawlCanceledContext(t *testing.T) {
	_, base, _, _ := world(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	crawler := &Crawler{BaseURL: base}
	if _, _, err := crawler.Crawl(ctx); err == nil {
		t.Error("crawl with canceled context succeeded")
	}
}

func TestCommitURLRegex(t *testing.T) {
	cases := []struct {
		url  string
		want bool
	}{
		{"http://x/github/acme/libfoo/commit/0123456789abcdef0123456789abcdef01234567", true},
		{"http://x/github/a/b/commit/abc1234", true},
		{"http://x/github/a/b/commit/xyz", false},      // not hex
		{"http://x/github/a/b/commits/abc1234", false}, // wrong path
	}
	for _, tc := range cases {
		if got := commitURLRe.MatchString(tc.url); got != tc.want {
			t.Errorf("match(%q) = %v, want %v", tc.url, got, tc.want)
		}
	}
}

func TestCommitRefMatchesPathOnly(t *testing.T) {
	for _, tc := range []struct {
		url, repo, hash string
	}{
		{"http://x/github/acme/libfoo/commit/0123456", "acme/libfoo", "0123456"},
		{"/github/acme/libfoo/commit/abcdef1", "acme/libfoo", "abcdef1"},
		{"http://x/github/a%2Fb/commit/abcdef1", "a%2Fb", "abcdef1"}, // the path as written
		{"http://h/x?/github/a/commit/abcdef1", "", ""},              // commit in the query
		{"http://h/x#/github/a/commit/abcdef1", "", ""},              // commit in the fragment
		{"http://h/github/a/commit/abcdef1?diff=split", "", ""},      // a query would follow .patch
		{"http://h/github/a/commit/abcdef1#", "", ""},                // so would a fragment
		{"http://github/a/commit/abcdef1", "", ""},                   // "github" is the host
		{"http://h/github/a/commit/xyz1234", "", ""},                 // not hex
		{"http://h/github/a/commit/abcdef1/x", "", ""},               // not the end of the path
		{"http://h:port/github/a/commit/abcdef1", "", ""},            // does not parse
	} {
		repo, hash, ok := commitRef(tc.url)
		if ok != (tc.hash != "") || repo != tc.repo || hash != tc.hash {
			t.Errorf("commitRef(%q) = %q, %q, %v; want %q, %q", tc.url, repo, hash, ok, tc.repo, tc.hash)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		h    string
		want time.Duration
		ok   bool
	}{
		{"3600", time.Hour, true},
		{"0.5", 500 * time.Millisecond, true},
		{"0", 0, true},
		{"9e9", 9e9 * time.Second, true},
		{"1e10", 0, false}, // 1e19 ns overflows time.Duration
		{"Inf", 0, false},
		{"+Inf", 0, false},
		{"NaN", 0, false},
		{"1e400", 0, false},
		{"-1", 0, false},
		{"", 0, false},
		{"soon", 0, false},
	} {
		got, ok := parseRetryAfter(tc.h)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want %v, %v", tc.h, got, ok, tc.want, tc.ok)
		}
	}
}

// multiCommitWorld seeds n distinct C-touching commits and one feed entry per
// commit, returning the service, base URL, and the commit hashes in feed
// order.
func multiCommitWorld(t *testing.T, n int) (*Service, string, []string) {
	t.Helper()
	store := gitrepo.NewStore()
	repo := gitrepo.NewRepo("acme/many")
	if err := store.Add(repo); err != nil {
		t.Fatal(err)
	}
	repo.SeedFile("src/m.c", "int v0;\n")
	hashes := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c := repo.Commit("alice", "2020-01-01", fmt.Sprintf("fix %d", i),
			map[string]string{"src/m.c": fmt.Sprintf("int v%d;\n", i+1)})
		hashes = append(hashes, c.Hash)
	}
	svc := NewService(store)
	base, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for i, h := range hashes {
		svc.AddEntry(Entry{ID: fmt.Sprintf("CVE-2020-%04d", i), References: []Reference{
			{URL: GitHubCommitURL(base, "acme/many", h), Tags: []string{"Patch"}},
		}})
	}
	return svc, base, hashes
}

func TestCrawlPreservesFeedOrder(t *testing.T) {
	// Concurrent downloads complete in arbitrary order; the crawl result
	// must still follow the feed, at any concurrency.
	_, base, hashes := multiCommitWorld(t, 40)
	for _, conc := range []int{1, 4, 32} {
		crawler := &Crawler{BaseURL: base, Concurrency: conc}
		patches, stats, err := crawler.Crawl(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(patches) != len(hashes) {
			t.Fatalf("conc=%d: patches = %d, want %d", conc, len(patches), len(hashes))
		}
		for i, p := range patches {
			if p.Hash != hashes[i] {
				t.Fatalf("conc=%d: patch %d = %s, want %s (feed order lost)", conc, i, p.Hash, hashes[i])
			}
		}
		if stats.Downloaded != len(hashes) {
			t.Errorf("conc=%d: downloaded = %d", conc, stats.Downloaded)
		}
	}
}

func TestCrawlProgress(t *testing.T) {
	_, base, hashes := multiCommitWorld(t, 10)
	var mu sync.Mutex
	var maxDone, calls, total int
	crawler := &Crawler{BaseURL: base, Concurrency: 4, Progress: func(done, tot int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		total = tot
		if done > maxDone {
			maxDone = done
		}
	}}
	if _, _, err := crawler.Crawl(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total != len(hashes) || maxDone != len(hashes) {
		t.Errorf("progress saw %d/%d, want %d/%d", maxDone, total, len(hashes), len(hashes))
	}
	if calls != len(hashes)+1 { // initial 0/N plus one per download
		t.Errorf("progress calls = %d, want %d", calls, len(hashes)+1)
	}
}

func TestCrawlCancelMidway(t *testing.T) {
	_, base, _ := multiCommitWorld(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	crawler := &Crawler{BaseURL: base, Concurrency: 2, Progress: func(done, total int) {
		if done >= 3 {
			cancel()
		}
	}}
	_, _, err := crawler.Crawl(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestCloseSurfacesServeError(t *testing.T) {
	store := gitrepo.NewStore()
	svc := NewService(store)
	if _, err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the listener out from under the server: Serve returns a real
	// error (not ErrServerClosed), which Close must surface instead of
	// swallowing.
	if err := svc.listener.Close(); err != nil {
		t.Fatal(err)
	}
	// Wait for the serve goroutine to observe the dead listener; calling
	// Close immediately can win the race and turn the accept failure into
	// a clean ErrServerClosed.
	<-svc.done
	err := svc.Close()
	if err == nil {
		t.Fatal("Close returned nil after the serve loop died")
	}
	if !strings.Contains(err.Error(), "nvd: serve:") {
		t.Errorf("Close error = %v, want a wrapped serve error", err)
	}
}

func TestCrawlCancelProgressReachesTotal(t *testing.T) {
	_, base, _ := multiCommitWorld(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var maxDone, total int
	crawler := &Crawler{BaseURL: base, Concurrency: 2, Progress: func(done, tot int) {
		mu.Lock()
		defer mu.Unlock()
		total = tot
		if done > maxDone {
			maxDone = done
		}
		if done == 3 {
			cancel()
		}
	}}
	_, _, err := crawler.Crawl(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Drained and never-submitted jobs still count: a canceled crawl's
	// progress bar must land on 100%, not stall at the cancellation point.
	mu.Lock()
	defer mu.Unlock()
	if maxDone != total || total != 30 {
		t.Errorf("progress peaked at %d/%d, want 30/30", maxDone, total)
	}
}
