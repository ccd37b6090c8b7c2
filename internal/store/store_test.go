package store

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"patchdb"
)

// testDataset builds a deterministic dataset whose every record carries tag
// in its Repo suffix, so a reader can tell which dataset version a record
// came from.
func testDataset(n int, tag string) *patchdb.Dataset {
	ds := &patchdb.Dataset{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("commit-%04d", i)
		repo := fmt.Sprintf("repo-%d-%s", i%5, tag)
		switch i % 4 {
		case 0:
			ds.NVD = append(ds.NVD, patchdb.Record{
				ID: id, Repo: repo, CVE: fmt.Sprintf("CVE-2020-%05d", i/2), Security: true,
				Pattern: patchdb.Pattern(1 + i%patchdb.NumPatterns), Source: "nvd", Text: "t",
			})
		case 1:
			ds.Wild = append(ds.Wild, patchdb.Record{
				ID: id, Repo: repo, Security: true,
				Pattern: patchdb.Pattern(1 + i%patchdb.NumPatterns), Source: "wild", Text: "t",
			})
		case 2:
			ds.NonSecurity = append(ds.NonSecurity, patchdb.Record{
				ID: id, Repo: repo, Source: "wild", Text: "t",
			})
		default:
			ds.Synthetic = append(ds.Synthetic, patchdb.Record{
				ID: id, Repo: repo, Security: true,
				Pattern: patchdb.Pattern(1 + i%patchdb.NumPatterns), Source: "synthetic", Text: "t",
			})
		}
	}
	return ds
}

func TestStoreLookupAndStats(t *testing.T) {
	ds := testDataset(100, "v1")
	st := New(0, nil)
	if st.Snapshot().Records() != 0 {
		t.Errorf("fresh store serves %d records", st.Snapshot().Records())
	}
	sn := st.Load(ds)

	if sn.Records() != 100 {
		t.Fatalf("records = %d, want 100", sn.Records())
	}
	if sn.Version != 1 {
		t.Errorf("version = %d, want 1", sn.Version)
	}
	if got, want := sn.Stats(), ds.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	r, ok := sn.Get("commit-0004")
	if !ok || r.Source != "nvd" || !r.Security {
		t.Errorf("Get commit-0004 = %+v, %v", r, ok)
	}
	if _, ok := sn.Get("no-such-commit"); ok {
		t.Error("Get returned a record for an unknown id")
	}
	if recs := sn.CVE("CVE-2020-00002"); len(recs) != 1 || recs[0].ID != "commit-0004" {
		t.Errorf("CVE lookup = %+v", recs)
	}
	if recs := sn.CVE("CVE-1999-99999"); len(recs) != 0 {
		t.Errorf("unknown CVE returned %d records", len(recs))
	}
	if !reflect.DeepEqual(sn.Distribution(), ds.Distribution()) {
		t.Error("distribution diverges from the dataset's")
	}
}

func TestStoreDuplicateIDsFirstWins(t *testing.T) {
	ds := &patchdb.Dataset{
		NVD:  []patchdb.Record{{ID: "x", Source: "nvd", Security: true, Text: "first"}},
		Wild: []patchdb.Record{{ID: "x", Source: "wild", Security: true, Text: "second"}},
	}
	sn := New(0, nil).Load(ds)
	if sn.Duplicates() != 1 {
		t.Errorf("duplicates = %d, want 1", sn.Duplicates())
	}
	if sn.Records() != 1 {
		t.Errorf("records = %d, want 1", sn.Records())
	}
	r, _ := sn.Get("x")
	if r.Text != "first" {
		t.Errorf("duplicate resolution kept %q, want the first occurrence", r.Text)
	}
}

// dupDataset is testDataset(n, "v1") (n > 5) plus records whose IDs are
// already taken, some carrying a CVE of their own, so the resolution
// order decides what the store serves: a wild copy of an NVD record, a
// non-security copy of a wild one, a synthetic copy of a non-security one
// (with an existing CVE), a second NVD record under an ID the NVD
// component already holds, and an NVD record under a synthetic record's
// ID, which beats it because NVD comes first.
func dupDataset(n int) *patchdb.Dataset {
	ds := testDataset(n, "v1")
	ds.Wild = append(ds.Wild, patchdb.Record{ID: "commit-0000", Repo: "repo-dup", CVE: "CVE-2020-99999",
		Security: true, Pattern: 2, Source: "wild", Text: "dup"})
	ds.NonSecurity = append(ds.NonSecurity, patchdb.Record{ID: "commit-0001", Repo: "repo-dup", Source: "wild", Text: "dup"})
	ds.Synthetic = append(ds.Synthetic, patchdb.Record{ID: "commit-0002", Repo: "repo-dup", CVE: "CVE-2020-00000",
		Security: true, Pattern: 5, Source: "synthetic", Text: "dup"})
	ds.NVD = append(ds.NVD,
		patchdb.Record{ID: "commit-0004", Repo: "repo-dup", CVE: "CVE-2020-88888", Security: true, Pattern: 1, Source: "nvd", Text: "dup"},
		patchdb.Record{ID: "commit-0003", Repo: "repo-dup", CVE: "CVE-2020-00002", Security: true, Pattern: 3, Source: "nvd", Text: "nvd wins"})
	return ds
}

// modelRecords resolves ds by brute force: the first occurrence of an ID
// in NVD, wild, non-security, synthetic order wins, later ones count as
// duplicates, and the winners come back in ID order.
func modelRecords(ds *patchdb.Dataset) (recs []patchdb.Record, dups int) {
	seen := map[string]bool{}
	for _, component := range [][]patchdb.Record{ds.NVD, ds.Wild, ds.NonSecurity, ds.Synthetic} {
		for _, r := range component {
			if seen[r.ID] {
				dups++
				continue
			}
			seen[r.ID] = true
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, dups
}

// modelList answers a valid q by filtering every resolved record: the
// matches strictly after the cursor, in ID order, cut at the limit, with a
// next cursor only when another match exists.
func modelList(recs []patchdb.Record, q Query, version uint64) Page {
	limit := q.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	page := Page{Records: []patchdb.Record{}, Version: version}
	for _, r := range recs {
		if q.Cursor != "" && r.ID <= q.Cursor ||
			q.Source != "" && r.Source != q.Source ||
			q.Security != nil && r.Security != *q.Security ||
			q.Pattern != 0 && r.Pattern != q.Pattern ||
			q.Repo != "" && r.Repo != q.Repo {
			continue
		}
		if len(page.Records) == limit {
			page.NextCursor = page.Records[limit-1].ID
			break
		}
		page.Records = append(page.Records, r)
	}
	return page
}

// TestQueriesMatchModel checks List, Get and CVE against the brute-force
// model, on a dataset with unique IDs and on the duplicate-ID fixture.
func TestQueriesMatchModel(t *testing.T) {
	secTrue := true
	queries := []Query{
		{},
		{Source: "nvd"},
		{Source: "wild", Security: &secTrue},
		{Pattern: 3},
		{Repo: "repo-2-v1"},
		{Limit: 7},
		{Cursor: "commit-0050", Limit: 10},
		{Cursor: "commit-0199"}, // the last ID: an empty page
	}
	for name, ds := range map[string]*patchdb.Dataset{"unique": testDataset(200, "v1"), "duplicates": dupDataset(200)} {
		sn := New(0, nil).Load(ds)
		recs, dups := modelRecords(ds)
		if sn.Records() != len(recs) || sn.Duplicates() != dups {
			t.Errorf("%s: records, duplicates = %d, %d, want %d, %d", name, sn.Records(), sn.Duplicates(), len(recs), dups)
		}
		for i, q := range queries {
			page, err := sn.List(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", name, i, err)
			}
			if want := modelList(recs, q, sn.Version); !reflect.DeepEqual(page, want) {
				t.Errorf("%s query %d %+v: page diverges from the model\n got %+v\nwant %+v", name, i, q, page, want)
			}
		}
		byID := map[string]patchdb.Record{}
		for _, r := range recs {
			byID[r.ID] = r
		}
		for _, id := range []string{"commit-0000", "commit-0001", "commit-0002", "commit-0003", "commit-0004", "commit-0123", "missing"} {
			want, wantOK := byID[id]
			if r, ok := sn.Get(id); ok != wantOK || r != want {
				t.Errorf("%s: Get(%q) = %+v, %v, want %+v, %v", name, id, r, ok, want, wantOK)
			}
		}
		cves := map[string]bool{"CVE-1999-99999": true}
		for _, c := range [][]patchdb.Record{ds.NVD, ds.Wild, ds.NonSecurity, ds.Synthetic} {
			for _, r := range c {
				if r.CVE != "" {
					cves[r.CVE] = true
				}
			}
		}
		for cve := range cves {
			want := []patchdb.Record{}
			for _, r := range recs {
				if r.CVE == cve {
					want = append(want, r)
				}
			}
			if got := sn.CVE(cve); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: CVE(%q) = %+v, want %+v", name, cve, got, want)
			}
		}
	}
}

// TestPaginationWalksEverything: following cursors visits every matching
// record exactly once, in ID order.
func TestPaginationWalksEverything(t *testing.T) {
	ds := testDataset(137, "v1")
	sn := New(0, nil).Load(ds)
	seen := map[string]bool{}
	q := Query{Limit: 10}
	prev := ""
	for {
		page, err := sn.List(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page.Records {
			if seen[r.ID] {
				t.Fatalf("record %s returned twice", r.ID)
			}
			if r.ID <= prev {
				t.Fatalf("record %s out of order after %s", r.ID, prev)
			}
			prev = r.ID
			seen[r.ID] = true
		}
		if page.NextCursor == "" {
			break
		}
		q.Cursor = page.NextCursor
	}
	if len(seen) != 137 {
		t.Errorf("pagination visited %d records, want 137", len(seen))
	}
}

// TestPaginationCursorStableAcrossReload: a cursor taken from one snapshot
// resumes at the same position after the store reloads the same dataset —
// no skipped and no duplicated records.
func TestPaginationCursorStableAcrossReload(t *testing.T) {
	st := New(0, nil)
	st.Load(testDataset(100, "v1"))

	first, err := st.Snapshot().List(Query{Limit: 30})
	if err != nil {
		t.Fatal(err)
	}
	if first.NextCursor == "" {
		t.Fatal("first page has no next cursor")
	}

	// Reload (same content, new snapshot/version), then continue the walk.
	sn2 := st.Load(testDataset(100, "v1"))
	if sn2.Version != 2 {
		t.Fatalf("reload version = %d, want 2", sn2.Version)
	}
	rest, err := sn2.List(Query{Cursor: first.NextCursor, Limit: MaxLimit})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(first.Records) + len(rest.Records); got != 100 {
		t.Errorf("pages across reload cover %d records, want 100", got)
	}
	if rest.Records[0].ID <= first.Records[len(first.Records)-1].ID {
		t.Error("continuation page overlaps the pre-reload page")
	}
}

func TestQueryValidation(t *testing.T) {
	sn := New(0, nil).Load(testDataset(10, "v1"))
	for _, q := range []Query{
		{Limit: -1},
		{Limit: MaxLimit + 1},
		{Source: "github"},
		{Pattern: patchdb.Pattern(patchdb.NumPatterns + 1)},
		{Pattern: -1},
	} {
		if _, err := sn.List(q); err == nil {
			t.Errorf("query %+v accepted", q)
		}
	}
	// Default limit fills in.
	page, err := sn.List(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 10 {
		t.Errorf("default query returned %d records", len(page.Records))
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.json")
	ds := testDataset(20, "v1")
	if err := ds.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	st := New(0, nil)
	sn, err := st.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Records() != 20 {
		t.Errorf("records = %d, want 20", sn.Records())
	}
	if _, err := st.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestSnapshotSwapRace drives concurrent readers through Get/List/Stats
// while the store flips between two dataset versions. Under -race this
// proves the swap is safe; the assertions prove isolation: every observed
// page is internally consistent (all records from one version, matching the
// snapshot's version parity), never a mix.
func TestSnapshotSwapRace(t *testing.T) {
	v1 := testDataset(120, "v1")
	v2 := testDataset(120, "v2")
	st := New(0, nil)
	st.Load(v1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sn := st.Snapshot()
				// Odd versions hold v1 ("-v1" repos), even versions v2.
				wantTag := "-v1"
				if sn.Version%2 == 0 {
					wantTag = "-v2"
				}
				page, err := sn.List(Query{Limit: 40})
				if err != nil {
					t.Errorf("list: %v", err)
					return
				}
				if len(page.Records) != 40 {
					t.Errorf("page has %d records, want 40", len(page.Records))
					return
				}
				for _, r := range page.Records {
					if r.Repo[len(r.Repo)-3:] != wantTag {
						t.Errorf("snapshot v%d contains record from %s", sn.Version, r.Repo)
						return
					}
				}
				if r, ok := sn.Get(fmt.Sprintf("commit-%04d", i%120)); !ok || r.Repo[len(r.Repo)-3:] != wantTag {
					t.Errorf("snapshot v%d Get sees %+v (ok=%v)", sn.Version, r, ok)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			st.Load(v2)
		} else {
			st.Load(v1)
		}
	}
	close(stop)
	wg.Wait()
}
