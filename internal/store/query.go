package store

import (
	"errors"
	"fmt"
	"sort"

	"patchdb"
)

// Pagination limits. A Limit of 0 asks for DefaultLimit; anything above
// MaxLimit is a query error, not a silent clamp, so clients learn the cap.
const (
	DefaultLimit = 50
	MaxLimit     = 500
)

// ErrBadQuery wraps every query-validation failure.
var ErrBadQuery = errors.New("store: bad query")

// knownSources are the record provenance values a query may filter on.
var knownSources = map[string]bool{"nvd": true, "wild": true, "synthetic": true}

// Query filters a paginated record scan. Zero values mean "no constraint".
type Query struct {
	// Source filters on provenance: "nvd", "wild", or "synthetic".
	Source string
	// Security, when non-nil, filters on the verified label.
	Security *bool
	// Pattern filters security patches on their pattern class (1..12).
	Pattern patchdb.Pattern
	// Repo filters on the owning repository.
	Repo string
	// Cursor resumes a scan strictly after this record ID ("" = start).
	Cursor string
	// Limit caps the page size (0 = DefaultLimit, max MaxLimit).
	Limit int
}

// validate normalizes the limit and rejects constraints no record can
// match through typos (unknown source, out-of-range pattern).
func (q *Query) validate() error {
	if q.Limit == 0 {
		q.Limit = DefaultLimit
	}
	if q.Limit < 0 || q.Limit > MaxLimit {
		return fmt.Errorf("%w: limit %d out of range [1,%d]", ErrBadQuery, q.Limit, MaxLimit)
	}
	if q.Source != "" && !knownSources[q.Source] {
		return fmt.Errorf("%w: unknown source %q (want nvd, wild, or synthetic)", ErrBadQuery, q.Source)
	}
	if q.Pattern < 0 || int(q.Pattern) > patchdb.NumPatterns {
		return fmt.Errorf("%w: pattern %d out of range [1,%d]", ErrBadQuery, int(q.Pattern), patchdb.NumPatterns)
	}
	return nil
}

// matches applies the query's filters to one record.
func (q *Query) matches(r *patchdb.Record) bool {
	if q.Source != "" && r.Source != q.Source {
		return false
	}
	if q.Security != nil && r.Security != *q.Security {
		return false
	}
	if q.Pattern != 0 && r.Pattern != q.Pattern {
		return false
	}
	if q.Repo != "" && r.Repo != q.Repo {
		return false
	}
	return true
}

// Page is one result page of a List scan.
type Page struct {
	// Records are the matching records, in ID order.
	Records []patchdb.Record `json:"records"`
	// NextCursor, when non-empty, resumes the scan on the next page.
	NextCursor string `json:"next_cursor,omitempty"`
	// Version is the snapshot version that served the page.
	Version uint64 `json:"version"`
}

// List scans the ID-sorted record spine with q's filters, returning up to
// q.Limit records after q.Cursor. A cursor stays valid across snapshot
// reloads: it names a position in ID order, not an offset.
func (sn *Snapshot) List(q Query) (Page, error) {
	if err := q.validate(); err != nil {
		return Page{}, err
	}
	start := 0
	if q.Cursor != "" {
		// First record with an ID strictly greater than the cursor.
		start = sort.Search(len(sn.spine), func(i int) bool { return sn.spine[i].ID > q.Cursor })
	}
	page := Page{Records: []patchdb.Record{}, Version: sn.Version}
	for _, r := range sn.spine[start:] {
		if !q.matches(r) {
			continue
		}
		if len(page.Records) == q.Limit {
			// One more match exists beyond the page: point the cursor at
			// the last record returned.
			page.NextCursor = page.Records[len(page.Records)-1].ID
			return page, nil
		}
		page.Records = append(page.Records, *r)
	}
	return page, nil
}
