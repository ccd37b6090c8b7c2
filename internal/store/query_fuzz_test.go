package store

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"patchdb"
)

// FuzzQuery feeds arbitrary raw query strings through the /v1/patches
// decoder (parseQuery) and the scan (List) on a fixed snapshot of the
// duplicate-ID fixture. Nothing may panic. The validator must accept
// exactly the decoded queries with a known source, a pattern in
// [0, NumPatterns] and a limit in [0, MaxLimit], and reject the others
// with ErrBadQuery. A query the decoder or the validator rejects must be
// answered 400 by the handler. An accepted query must return exactly the
// brute-force model's page.
func FuzzQuery(f *testing.F) {
	ds := dupDataset(200)
	st := New(0, nil)
	sn := st.Load(ds)
	recs, _ := modelRecords(ds)
	h := NewHandler(st, nil, nil)
	for _, seed := range []string{
		"",
		"source=nvd&security=true&limit=5",
		"source=wild&security=1&pattern=3",
		"cursor=commit-0050&limit=10",
		"cursor=commit-0199",
		"cursor=commit-0100a&repo=repo-2-v1",
		"repo=repo-dup&limit=500",
		"limit=0",
		"limit=-1",
		"limit=501",
		"security=maybe",
		"pattern=99",
		"pattern=-1",
		"pattern=12&security=true",
		"pattern=x",
		"source=github",
		"source=nvd&source=wild",
		"cursor=%zz&limit=3",
		"a=b;c=d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/patches", nil)
		req.URL.RawQuery = raw
		q, err := parseQuery(req)
		if err == nil {
			valid := (q.Source == "" || q.Source == "nvd" || q.Source == "wild" || q.Source == "synthetic") &&
				q.Pattern >= 0 && int(q.Pattern) <= patchdb.NumPatterns && q.Limit >= 0 && q.Limit <= MaxLimit
			var page Page
			page, err = sn.List(q)
			if (err == nil) != valid {
				t.Fatalf("query %q (%+v): List error %v, want valid=%v", raw, q, err, valid)
			}
			if err == nil {
				if want := modelList(recs, q, sn.Version); !reflect.DeepEqual(page, want) {
					t.Fatalf("query %q: page diverges from the model\n got %+v\nwant %+v", raw, page, want)
				}
				return
			}
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("query %q: List error %v is not ErrBadQuery", raw, err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("query %q rejected (%v) but answered %d", raw, err, rec.Code)
		}
	})
}
