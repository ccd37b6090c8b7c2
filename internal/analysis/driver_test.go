package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The driver tests run against a tiny hermetic module (no imports beyond
// its own packages, so type-checks cost nothing) with a test-local analyzer
// whose facts are controlled by doc-comment markers: that makes "a change
// that alters exported facts" and "a change that does not" trivially
// distinguishable.

const depMarked = `package dep

// Marked is special. mark:yes
func Marked() {}

// Plain is ordinary.
func Plain() {}
`

const appSrc = `package app

import "tmpmod/dep"

func Use() {
	dep.Marked()
	dep.Plain()
}
`

func writeTestModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"go.mod":     "module tmpmod\n\ngo 1.21\n",
		"dep/dep.go": depMarked,
		"app/app.go": appSrc,
	})
	return root
}

func writeFiles(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// markAnalyzer exports an "m" fact for every function whose doc comment
// contains mark:yes and reports every call to a function carrying the fact
// (locally or imported).
func markAnalyzer(version int) *Analyzer {
	return &Analyzer{
		Name:    "tmark",
		Doc:     "test analyzer: flags calls to mark:yes functions",
		Version: version,
		Run: func(pass *Pass) {
			for _, f := range pass.Pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Doc == nil || !strings.Contains(fd.Doc.Text(), "mark:yes") {
						continue
					}
					if obj := pass.Pkg.Info.Defs[fd.Name]; obj != nil {
						pass.ExportObjectFact(obj, "m", "1")
					}
				}
			}
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if fn := pass.CalleeFunc(call); fn != nil {
						if _, marked := pass.ObjectFact(fn, "m"); marked {
							pass.Reportf(call.Pos(), "call to marked function %s", fn.Name())
						}
					}
					return true
				})
			}
		},
	}
}

// runTestDriver runs a fresh loader + driver over the module — a fresh
// loader per run is the point: a warm run must get everything from the
// cache, not from loader state.
func runTestDriver(t *testing.T, root, cacheDir string, analyzers []*Analyzer, workers int) ([]Diagnostic, *Stats) {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	d := &Driver{Loader: l, Analyzers: analyzers, CacheDir: cacheDir, Workers: workers}
	diags, stats, err := d.Run(root, "./...")
	if err != nil {
		t.Fatalf("driver run: %v", err)
	}
	return diags, stats
}

func renderDiags(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.String()
	}
	return out
}

func sameDiags(a, b []Diagnostic) bool {
	ra, rb := renderDiags(a), renderDiags(b)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func TestDriverColdThenWarm(t *testing.T) {
	root := writeTestModule(t)
	cache := filepath.Join(root, ".lintcache")
	an := []*Analyzer{markAnalyzer(1)}

	cold, coldStats := runTestDriver(t, root, cache, an, 4)
	if len(cold) != 1 || !strings.Contains(cold[0].Message, "call to marked function Marked") {
		t.Fatalf("cold diagnostics = %v, want one marked-call finding", renderDiags(cold))
	}
	if coldStats.CacheHits != 0 || coldStats.CacheMisses != 2 {
		t.Errorf("cold stats = %s, want 0 hits / 2 misses", coldStats)
	}
	if coldStats.SourceLoads == 0 {
		t.Errorf("cold run type-checked nothing: %s", coldStats)
	}

	warm, warmStats := runTestDriver(t, root, cache, an, 4)
	if warmStats.CacheHits != 2 || warmStats.CacheMisses != 0 {
		t.Errorf("warm stats = %s, want 2 hits / 0 misses", warmStats)
	}
	if warmStats.SourceLoads != 0 {
		t.Errorf("warm run loaded %d packages from source, want 0", warmStats.SourceLoads)
	}
	if !sameDiags(cold, warm) {
		t.Errorf("warm diagnostics differ from cold:\ncold: %v\nwarm: %v", renderDiags(cold), renderDiags(warm))
	}
}

// TestDriverTestImportCycle: base's in-package test imports user, which
// imports base. go test allows that, but as unit edges it is a cycle, and
// base sorts first, so a level walk that starts there and follows the test
// edge would put user in the earlier wave. user must still run after base
// and see its facts, and a warm run must be all hits.
func TestDriverTestImportCycle(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"go.mod":                     "module tmpmod\n\ngo 1.21\n",
		"base/base.go":               strings.Replace(depMarked, "package dep", "package base", 1),
		"base/base_internal_test.go": "package base\n\nimport \"tmpmod/user\"\n\nfunc useUser() { user.Use() }\n",
		"user/user.go":               "package user\n\nimport \"tmpmod/base\"\n\nfunc Use() { base.Marked() }\n",
	})
	cache := filepath.Join(root, ".lintcache")
	an := []*Analyzer{markAnalyzer(1)}
	cold, _ := runTestDriver(t, root, cache, an, 2)
	if len(cold) != 1 || !strings.Contains(cold[0].Message, "call to marked function Marked") {
		t.Fatalf("cold diagnostics = %v, want user's marked-call finding", renderDiags(cold))
	}
	warm, stats := runTestDriver(t, root, cache, an, 2)
	if stats.CacheMisses != 0 || stats.SourceLoads != 0 {
		t.Errorf("warm stats = %s, want no misses and no source loads", stats)
	}
	if !sameDiags(cold, warm) {
		t.Errorf("warm diagnostics differ from cold:\ncold: %v\nwarm: %v", renderDiags(cold), renderDiags(warm))
	}
}

func TestDriverSourceChangeInvalidatesUnit(t *testing.T) {
	root := writeTestModule(t)
	cache := filepath.Join(root, ".lintcache")
	an := []*Analyzer{markAnalyzer(1)}
	runTestDriver(t, root, cache, an, 2)

	writeFiles(t, root, map[string]string{
		"app/app.go": appSrc + "\nfunc More() {\n\tdep.Plain()\n}\n",
	})
	_, stats := runTestDriver(t, root, cache, an, 2)
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Errorf("after app edit: %s, want 1 hit (dep) / 1 miss (app)", stats)
	}
}

// TestDriverDepCommentChangeKeepsDependentCached is the key cache-design
// property: the dependent's key includes the dependency's *fact hash*, not
// its sources, so a dependency edit that leaves exported facts unchanged
// re-analyzes only the dependency.
func TestDriverDepCommentChangeKeepsDependentCached(t *testing.T) {
	root := writeTestModule(t)
	cache := filepath.Join(root, ".lintcache")
	an := []*Analyzer{markAnalyzer(1)}
	before, _ := runTestDriver(t, root, cache, an, 2)

	writeFiles(t, root, map[string]string{
		"dep/dep.go": strings.Replace(depMarked, "Plain is ordinary", "Plain is still ordinary", 1),
	})
	after, stats := runTestDriver(t, root, cache, an, 2)
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Errorf("after dep comment edit: %s, want 1 hit (app) / 1 miss (dep)", stats)
	}
	if !sameDiags(before, after) {
		t.Errorf("diagnostics changed on a comment-only edit:\nbefore: %v\nafter: %v",
			renderDiags(before), renderDiags(after))
	}
}

func TestDriverFactChangeInvalidatesDependent(t *testing.T) {
	root := writeTestModule(t)
	cache := filepath.Join(root, ".lintcache")
	an := []*Analyzer{markAnalyzer(1)}
	runTestDriver(t, root, cache, an, 2)

	writeFiles(t, root, map[string]string{
		"dep/dep.go": strings.Replace(depMarked, "mark:yes", "mark:no", 1),
	})
	diags, stats := runTestDriver(t, root, cache, an, 2)
	if stats.CacheMisses != 2 || stats.CacheHits != 0 {
		t.Errorf("after fact change: %s, want both units re-analyzed", stats)
	}
	if len(diags) != 0 {
		t.Errorf("unmarked function still reported: %v", renderDiags(diags))
	}
}

func TestDriverAnalyzerVersionInvalidates(t *testing.T) {
	root := writeTestModule(t)
	cache := filepath.Join(root, ".lintcache")
	runTestDriver(t, root, cache, []*Analyzer{markAnalyzer(1)}, 2)

	_, stats := runTestDriver(t, root, cache, []*Analyzer{markAnalyzer(2)}, 2)
	if stats.CacheMisses != 2 || stats.CacheHits != 0 {
		t.Errorf("after version bump: %s, want every unit re-analyzed", stats)
	}
}

func TestDriverCorruptCacheEntryIsMiss(t *testing.T) {
	root := writeTestModule(t)
	cache := filepath.Join(root, ".lintcache")
	an := []*Analyzer{markAnalyzer(1)}
	before, _ := runTestDriver(t, root, cache, an, 2)

	ents, err := os.ReadDir(cache)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no cache entries written: %v", err)
	}
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(cache, e.Name()), []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	after, stats := runTestDriver(t, root, cache, an, 2)
	if stats.CacheMisses != 2 {
		t.Errorf("corrupt entries not treated as misses: %s", stats)
	}
	if !sameDiags(before, after) {
		t.Errorf("diagnostics differ after corrupt-cache recovery")
	}
}

// TestDriverResultsInvariant: diagnostics are bit-identical with and without
// the cache and at any worker count.
func TestDriverResultsInvariant(t *testing.T) {
	root := writeTestModule(t)
	an := []*Analyzer{markAnalyzer(1)}

	noCacheW1, _ := runTestDriver(t, root, "", an, 1)
	noCacheW8, _ := runTestDriver(t, root, "", an, 8)
	cache := filepath.Join(root, ".lintcache")
	cachedCold, _ := runTestDriver(t, root, cache, an, 8)
	cachedWarm, _ := runTestDriver(t, root, cache, an, 3)

	for name, got := range map[string][]Diagnostic{
		"workers=8 uncached": noCacheW8,
		"cold cached":        cachedCold,
		"warm cached":        cachedWarm,
	} {
		if !sameDiags(noCacheW1, got) {
			t.Errorf("%s diagnostics differ from workers=1 uncached:\nbase: %v\ngot:  %v",
				name, renderDiags(noCacheW1), renderDiags(got))
		}
	}
	if len(noCacheW1) != 1 {
		t.Fatalf("baseline run found %d diagnostics, want 1", len(noCacheW1))
	}
}
