package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"patchdb/internal/atomicio"
	"patchdb/internal/par"
)

// cacheSchema versions the on-disk cache entry layout; bumping it orphans
// every existing entry.
const cacheSchema = 1

// Driver is the incremental parallel analysis runner: it discovers package
// units with a cheap imports-only scan, analyzes them concurrently in
// topological waves (facts flow strictly from earlier waves, so results are
// identical at any worker count), and caches per-unit results keyed by a
// content hash of (sources, analyzer set + versions, imported facts) — a
// warm run over an unchanged tree type-checks nothing.
type Driver struct {
	Loader    *Loader
	Analyzers []*Analyzer
	// CacheDir holds per-unit result files; "" disables caching.
	CacheDir string
	// Workers caps concurrent unit analyses; <= 0 means GOMAXPROCS.
	Workers int
}

// Stats summarizes one driver run.
type Stats struct {
	Units       int
	Waves       int
	CacheHits   int
	CacheMisses int
	// SourceLoads counts packages type-checked from source during this run
	// (analyzed units plus their module-internal imports); 0 on a fully
	// warm run.
	SourceLoads int64
}

// String renders the one-line -stats summary.
func (s *Stats) String() string {
	return fmt.Sprintf("units=%d waves=%d cache_hits=%d cache_misses=%d source_loads=%d",
		s.Units, s.Waves, s.CacheHits, s.CacheMisses, s.SourceLoads)
}

// unit is one discovered package unit: a directory's base package (library
// + in-package tests) or its external test package.
type unit struct {
	importPath string
	dir        string
	external   bool
	srcHash    string
	deps       []*unit // in-set dependencies (facts flow along these)
	level      int

	key       string
	diags     []Diagnostic
	facts     *FactSet
	factsHash string
	hit       bool
}

// Run analyzes the packages matched by patterns and returns the globally
// sorted diagnostics plus run statistics.
func (d *Driver) Run(cwd string, patterns ...string) ([]Diagnostic, *Stats, error) {
	units, err := d.discover(cwd, patterns...)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{Units: len(units)}
	loadsBefore := d.Loader.SourceLoads()
	sig := analyzersSig(d.Analyzers)

	if d.CacheDir != "" {
		if err := os.MkdirAll(d.CacheDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("analysis: create cache dir: %w", err)
		}
	}

	maxLevel := 0
	for _, u := range units {
		if u.level > maxLevel {
			maxLevel = u.level
		}
	}
	stats.Waves = maxLevel + 1

	for level := 0; level <= maxLevel; level++ {
		var wave []*unit
		for _, u := range units {
			if u.level == level {
				wave = append(wave, u)
			}
		}
		errs := make([]error, len(wave))
		_ = par.For(nil, len(wave), d.Workers, func(_, i int) {
			errs[i] = d.runUnit(wave[i], sig)
		})
		for i, u := range wave {
			if errs[i] != nil {
				return nil, stats, errs[i]
			}
			if u.hit {
				stats.CacheHits++
			} else {
				stats.CacheMisses++
			}
		}
	}

	var out []Diagnostic
	for _, u := range units {
		out = append(out, u.diags...)
	}
	SortDiagnostics(out)
	stats.SourceLoads = d.Loader.SourceLoads() - loadsBefore
	return out, stats, nil
}

// runUnit analyzes one unit, consulting and populating the cache.
func (d *Driver) runUnit(u *unit, sig string) error {
	trans := transitiveDeps(u)
	u.key = d.unitKey(u, sig, trans)

	if d.CacheDir != "" {
		if ent, ok := d.loadCacheEntry(u); ok {
			facts, err := DecodeFactSet(ent.Facts)
			if err == nil {
				u.facts = facts
				u.factsHash = ent.FactsHash
				u.diags = d.diagsFromCache(ent.Diags)
				u.hit = true
				return nil
			}
		}
	}

	pkg, err := d.Loader.LoadUnit(u.dir, u.external)
	if err != nil {
		return err
	}
	imported := NewFactSet()
	for _, dep := range trans {
		imported.Merge(dep.facts)
	}
	res := RunUnit(pkg, d.Analyzers, imported)
	u.diags = res.Diagnostics
	u.facts = res.Facts
	u.factsHash = res.Facts.Hash()

	if d.CacheDir != "" {
		if err := d.writeCacheEntry(u); err != nil {
			return err
		}
	}
	return nil
}

// unitKey derives the cache key: schema, module, unit identity, the
// analyzer set with versions, the unit's source hash, and the fact hash of
// every in-set transitive dependency. Dependency *sources* are deliberately
// absent — a dependency edit that leaves its exported facts unchanged (a
// comment, a private refactor) keeps dependents cached.
func (d *Driver) unitKey(u *unit, sig string, trans []*unit) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema %d\nmodule %s\nunit %s\nanalyzers %s\nsrc %s\n",
		cacheSchema, d.Loader.Module, u.importPath, sig, u.srcHash)
	for _, dep := range trans {
		fmt.Fprintf(h, "dep %s %s\n", dep.importPath, dep.factsHash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analyzersSig renders the analyzer configuration for the cache key: the
// enabled set, each with its version.
func analyzersSig(analyzers []*Analyzer) string {
	parts := make([]string, len(analyzers))
	for i, a := range analyzers {
		parts[i] = a.Name + ":" + strconv.Itoa(a.Version)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// transitiveDeps returns every unit reachable along dependency edges,
// sorted by import path.
func transitiveDeps(u *unit) []*unit {
	seen := make(map[*unit]bool)
	var visit func(*unit)
	visit = func(v *unit) {
		for _, dep := range v.deps {
			if !seen[dep] {
				seen[dep] = true
				visit(dep)
			}
		}
	}
	visit(u)
	out := make([]*unit, 0, len(seen))
	for dep := range seen {
		out = append(out, dep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].importPath < out[j].importPath })
	return out
}

// cacheEntry is the on-disk per-unit record.
type cacheEntry struct {
	Schema     int             `json:"schema"`
	Key        string          `json:"key"`
	ImportPath string          `json:"import_path"`
	Diags      []cacheDiag     `json:"diags,omitempty"`
	Facts      json.RawMessage `json:"facts"`
	FactsHash  string          `json:"facts_hash"`
}

// cacheDiag stores a diagnostic with a module-relative path so the cache
// survives a checkout moving.
type cacheDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d *Driver) cachePath(u *unit) string {
	sum := sha256.Sum256([]byte(u.importPath))
	return filepath.Join(d.CacheDir, hex.EncodeToString(sum[:])[:20]+".json")
}

func (d *Driver) loadCacheEntry(u *unit) (*cacheEntry, bool) {
	data, err := os.ReadFile(d.cachePath(u))
	if err != nil {
		return nil, false
	}
	var ent cacheEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return nil, false // corrupt entry: treat as a miss, it will be rewritten
	}
	if ent.Schema != cacheSchema || ent.Key != u.key {
		return nil, false
	}
	return &ent, true
}

func (d *Driver) writeCacheEntry(u *unit) error {
	ent := cacheEntry{
		Schema:     cacheSchema,
		Key:        u.key,
		ImportPath: u.importPath,
		Facts:      json.RawMessage(u.facts.Encode()),
		FactsHash:  u.factsHash,
	}
	for _, diag := range u.diags {
		file := diag.Pos.Filename
		if rel, err := filepath.Rel(d.Loader.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		ent.Diags = append(ent.Diags, cacheDiag{
			File: file, Line: diag.Pos.Line, Col: diag.Pos.Column,
			Check: diag.Check, Message: diag.Message,
		})
	}
	data, err := json.Marshal(&ent)
	if err != nil {
		return fmt.Errorf("analysis: encode cache entry %s: %w", u.importPath, err)
	}
	// Atomic write: a killed run must never leave a torn entry behind.
	return atomicio.WriteFile(d.cachePath(u), data)
}

func (d *Driver) diagsFromCache(cached []cacheDiag) []Diagnostic {
	diags := make([]Diagnostic, len(cached))
	for i, c := range cached {
		file := c.File
		if !filepath.IsAbs(file) {
			file = filepath.Join(d.Loader.Root, filepath.FromSlash(c.File))
		}
		diags[i] = Diagnostic{
			Pos:     token.Position{Filename: file, Line: c.Line, Column: c.Col},
			Check:   c.Check,
			Message: c.Message,
		}
	}
	return diags
}

// discover scans the matched directories with an imports-only parse — no
// type-checking — and returns the units with dependency edges and wave
// levels assigned.
func (d *Driver) discover(cwd string, patterns ...string) ([]*unit, error) {
	dirs, err := d.Loader.ResolveDirs(cwd, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byPath := make(map[string]*unit) // base units by import path
	var units []*unit
	imports := make(map[*unit]map[string]bool)     // by the unit's package files
	testImports := make(map[*unit]map[string]bool) // by in-package test files only

	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		type srcFile struct {
			name     string
			data     []byte
			external bool
			imports  []string
		}
		var files []srcFile
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), data, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			sf := srcFile{name: name, data: data, external: strings.HasSuffix(f.Name.Name, "_test")}
			for _, im := range f.Imports {
				if p, err := strconv.Unquote(im.Path.Value); err == nil {
					sf.imports = append(sf.imports, p)
				}
			}
			files = append(files, sf)
		}
		if len(files) == 0 {
			continue
		}
		importPath, err := d.Loader.pathFor(dir)
		if err != nil {
			return nil, err
		}
		build := func(external bool) {
			h := sha256.New()
			imps, testImps := make(map[string]bool), make(map[string]bool)
			n := 0
			for _, sf := range files {
				if sf.external != external {
					continue
				}
				n++
				fmt.Fprintf(h, "%s %d\n", sf.name, len(sf.data))
				h.Write(sf.data)
				dst := imps
				if !external && strings.HasSuffix(sf.name, "_test.go") {
					dst = testImps
				}
				for _, p := range sf.imports {
					if p == d.Loader.Module || strings.HasPrefix(p, d.Loader.Module+"/") {
						dst[p] = true
					}
				}
			}
			if n == 0 {
				return
			}
			u := &unit{importPath: importPath, dir: dir, external: external, srcHash: hex.EncodeToString(h.Sum(nil))}
			if external {
				u.importPath += ".test"
			} else {
				byPath[importPath] = u
			}
			units = append(units, u)
			imports[u], testImports[u] = imps, testImps
		}
		build(false)
		build(true)
	}

	// Resolve dependency edges against the discovered set; an external test
	// unit additionally depends on its own base unit.
	sort.Slice(units, func(i, j int) bool { return units[i].importPath < units[j].importPath })
	for _, u := range units {
		depSet := make(map[*unit]bool)
		for p := range imports[u] {
			if dep, ok := byPath[p]; ok && dep != u {
				depSet[dep] = true
			}
		}
		if u.external {
			if base, ok := byPath[strings.TrimSuffix(u.importPath, ".test")]; ok {
				depSet[base] = true
			}
		}
		for dep := range depSet {
			u.deps = append(u.deps, dep)
		}
		sort.Slice(u.deps, func(i, j int) bool { return u.deps[i].importPath < u.deps[j].importPath })
	}
	// An in-package test may import a package that imports the package
	// under test. Such an edge would make the unit graph cyclic, and then a
	// unit could run in the same wave as a dependency and read its facts
	// half-written, so a test-only import becomes an edge only when it does
	// not lead back to the unit. Units and imports are taken in import-path
	// order, so which edges are kept does not depend on the directory walk.
	for _, u := range units {
		ps := make([]string, 0, len(testImports[u]))
		for p := range testImports[u] {
			if !imports[u][p] {
				ps = append(ps, p)
			}
		}
		sort.Strings(ps)
		for _, p := range ps {
			if dep, ok := byPath[p]; ok && dep != u && !reaches(dep, u) {
				u.deps = append(u.deps, dep)
			}
		}
		sort.Slice(u.deps, func(i, j int) bool { return u.deps[i].importPath < u.deps[j].importPath })
	}

	// Wave levels: a unit runs strictly after everything it depends on.
	memo := make(map[*unit]int)
	var levelOf func(*unit) int
	levelOf = func(u *unit) int {
		if lv, ok := memo[u]; ok {
			return lv
		}
		memo[u] = 0 // the edges are acyclic; this also guards re-entry
		lv := 0
		for _, dep := range u.deps {
			if dl := levelOf(dep) + 1; dl > lv {
				lv = dl
			}
		}
		memo[u] = lv
		return lv
	}
	for _, u := range units {
		u.level = levelOf(u)
	}
	return units, nil
}

// reaches reports whether to is reachable from from along dependency edges.
func reaches(from, to *unit) bool {
	seen := make(map[*unit]bool)
	var visit func(*unit) bool
	visit = func(v *unit) bool {
		if v == to {
			return true
		}
		if seen[v] {
			return false
		}
		seen[v] = true
		for _, dep := range v.deps {
			if visit(dep) {
				return true
			}
		}
		return false
	}
	return visit(from)
}
