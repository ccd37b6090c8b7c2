// Package store is PatchDB's serving layer: an immutable in-memory patch
// store holding versioned snapshots of a built dataset, designed so a
// rebuild never blocks a reader. A Store owns one atomic pointer to the
// current Snapshot; Load constructs a complete replacement snapshot off to
// the side and swaps it in with a single atomic store, so every query runs
// against exactly one consistent version — old or new, never a mix.
//
// A snapshot holds one map from record ID (the commit hash) to record for
// point lookups, a CVE index, and a spine of every record sorted by ID.
// Scan queries walk the spine, which keeps cursor pagination stable across
// reloads: the cursor is the last record ID of the previous page, and a
// reload of the same dataset resumes the scan at exactly the same position.
package store

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"patchdb"
	"patchdb/internal/telemetry"
)

// MetricReloadFailures counts LoadFile attempts that failed (unreadable or
// malformed artifact); the previous snapshot keeps serving through every one
// of them.
const MetricReloadFailures = "patchdb_store_reload_failures_total"

// DefaultShards is unused by the store, which is not sharded. It is kept,
// with its value, only because the perfbench benchmark passes it to New and
// writes it into its run record.
const DefaultShards = 4

// Store holds the current snapshot and swaps in new ones atomically.
// Readers call Snapshot and query the returned value; Load may run
// concurrently with any number of readers.
type Store struct {
	reg *telemetry.Registry

	// loadMu serializes Load calls so version numbers observed through the
	// snapshot pointer are monotonic.
	loadMu  sync.Mutex
	version atomic.Uint64
	snap    atomic.Pointer[Snapshot]

	// healthMu guards the reload-health record below: when the current
	// snapshot was swapped in, when the last (re)load was attempted, and the
	// last attempt's error ("" after a success). A failed reload never
	// touches the snapshot pointer — readers keep the previous version — so
	// this record is the only place the failure is visible.
	healthMu      sync.Mutex
	loadedAt      time.Time
	lastReloadAt  time.Time
	lastReloadErr string
}

// Health is a point-in-time view of the store's serving state, exposed on
// /healthz: the current snapshot's version and size, when it was loaded, and
// the outcome of the most recent load attempt.
type Health struct {
	Version uint64
	Records int
	// LoadedAt is when the current snapshot was swapped in (zero if the
	// store has only ever served its empty initial snapshot).
	LoadedAt time.Time
	// LastReloadAt is when the most recent load attempt ran, successful or
	// not (zero if none).
	LastReloadAt time.Time
	// LastReloadError is the most recent load attempt's error, "" if it
	// succeeded.
	LastReloadError string
}

// Health reports the store's current serving state.
func (s *Store) Health() Health {
	sn := s.Snapshot()
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return Health{
		Version:         sn.Version,
		Records:         sn.Records(),
		LoadedAt:        s.loadedAt,
		LastReloadAt:    s.lastReloadAt,
		LastReloadError: s.lastReloadErr,
	}
}

// New creates an empty store publishing into hub (nil gets a private one).
// The store serves empty results until the first Load. The int argument is
// ignored: it is kept only for the perfbench benchmark's call, and callers
// in this module pass 0.
func New(_ int, hub *telemetry.Hub) *Store {
	if hub == nil {
		hub = telemetry.NewHub()
	}
	s := &Store{reg: hub.Registry}
	s.snap.Store(buildSnapshot(&patchdb.Dataset{}, 0))
	return s
}

// Snapshot returns the current immutable snapshot. The returned value never
// changes; hold it for as long as a consistent view is needed.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Load builds a snapshot of ds and atomically makes it current, returning
// the new snapshot. Readers holding the previous snapshot are unaffected.
func (s *Store) Load(ds *patchdb.Dataset) *Snapshot {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	sn := buildSnapshot(ds, s.version.Add(1))
	s.snap.Store(sn)
	s.healthMu.Lock()
	now := time.Now()
	s.loadedAt = now
	s.lastReloadAt = now
	s.lastReloadErr = ""
	s.healthMu.Unlock()
	s.reg.Gauge("patchdb_store_snapshot_version").Set(float64(sn.Version))
	s.reg.Gauge("patchdb_store_records").Set(float64(len(sn.spine)))
	s.reg.Counter("patchdb_store_loads_total").Inc()
	return sn
}

// LoadFile reads a dataset artifact from disk and makes it current. On
// failure the store keeps serving the previous snapshot untouched; the
// failure is recorded in Health and the reload-failure counter so operators
// can see that the artifact on disk is newer than what is being served.
func (s *Store) LoadFile(path string) (*Snapshot, error) {
	ds, err := patchdb.LoadDatasetFile(path)
	if err != nil {
		err = fmt.Errorf("store: %w", err)
		s.healthMu.Lock()
		s.lastReloadAt = time.Now()
		s.lastReloadErr = err.Error()
		s.healthMu.Unlock()
		s.reg.Counter(MetricReloadFailures).Inc()
		return nil, err
	}
	return s.Load(ds), nil
}

// Snapshot is one immutable, fully indexed version of the dataset. All
// methods are safe for unlimited concurrent use; nothing mutates a snapshot
// after buildSnapshot returns it.
type Snapshot struct {
	// Version is the load generation that produced this snapshot (1 for the
	// first Load; 0 for the empty snapshot a fresh Store serves).
	Version uint64

	byID map[string]*patchdb.Record
	// spine is the pagination order: every record, sorted by ID.
	spine []*patchdb.Record
	// byCVE maps a CVE id to the records fixing it, sorted by ID.
	byCVE map[string][]*patchdb.Record
	// duplicates counts records dropped because an earlier component
	// already claimed their ID (first record wins).
	duplicates int

	stats patchdb.Stats
	dist  map[patchdb.Pattern]int
}

// buildSnapshot constructs the full index set for ds. The dataset's record
// slices are referenced, not copied — callers must not mutate ds after
// loading it (the CLIs never do; they load, swap, and drop the reference).
func buildSnapshot(ds *patchdb.Dataset, version uint64) *Snapshot {
	sn := &Snapshot{
		Version: version,
		byID:    make(map[string]*patchdb.Record),
		byCVE:   make(map[string][]*patchdb.Record),
		stats:   ds.Stats(),
		dist:    ds.Distribution(),
	}
	for _, component := range [][]patchdb.Record{ds.NVD, ds.Wild, ds.NonSecurity, ds.Synthetic} {
		for i := range component {
			r := &component[i]
			if _, ok := sn.byID[r.ID]; ok {
				sn.duplicates++
				continue
			}
			sn.byID[r.ID] = r
			sn.spine = append(sn.spine, r)
			if r.CVE != "" {
				sn.byCVE[r.CVE] = append(sn.byCVE[r.CVE], r)
			}
		}
	}
	slices.SortFunc(sn.spine, compareID)
	for _, recs := range sn.byCVE {
		slices.SortFunc(recs, compareID)
	}
	return sn
}

// compareID orders records by ID; IDs in a snapshot are unique.
func compareID(a, b *patchdb.Record) int { return strings.Compare(a.ID, b.ID) }

// Get returns the record with the given ID.
func (sn *Snapshot) Get(id string) (patchdb.Record, bool) {
	r, ok := sn.byID[id]
	if !ok {
		return patchdb.Record{}, false
	}
	return *r, true
}

// CVE returns every record fixing the given CVE, in ID order.
func (sn *Snapshot) CVE(cve string) []patchdb.Record {
	recs := sn.byCVE[cve]
	out := make([]patchdb.Record, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	return out
}

// Records returns the total number of records in the snapshot.
func (sn *Snapshot) Records() int { return len(sn.spine) }

// Duplicates returns how many records were dropped at load because another
// component already claimed their ID.
func (sn *Snapshot) Duplicates() int { return sn.duplicates }

// Stats returns the loaded dataset's component sizes.
func (sn *Snapshot) Stats() patchdb.Stats { return sn.stats }

// Distribution returns the loaded dataset's security-pattern distribution.
// The returned map is a copy; callers may mutate it.
func (sn *Snapshot) Distribution() map[patchdb.Pattern]int {
	out := make(map[patchdb.Pattern]int, len(sn.dist))
	for p, n := range sn.dist {
		out[p] = n
	}
	return out
}
