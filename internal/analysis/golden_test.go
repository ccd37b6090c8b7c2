package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches one loader (and with it the type-checked stdlib) for
// the whole test binary.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

func loadTestPkg(t *testing.T, rel, importPath string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join(l.Root, rel), importPath)
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	return pkg
}

// wantRe extracts the backquoted regexes of a `// want` comment.
var wantRe = regexp.MustCompile("// want((?:\\s+`[^`]+`)+)")
var wantArgRe = regexp.MustCompile("`([^`]+)`")

type expectation struct {
	line int
	re   *regexp.Regexp
	used bool
	raw  string
}

// parseWants reads `// want `regex“ annotations per line of every file in
// dir.
func parseWants(t *testing.T, dir string) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(arg[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), i+1, arg[1], err)
				}
				wants[e.Name()] = append(wants[e.Name()], &expectation{line: i + 1, re: re, raw: arg[1]})
			}
		}
	}
	return wants
}

// goldenPkg names one testdata package of a golden scenario: its directory
// relative to the module root and the import path to load it under.
type goldenPkg struct {
	rel        string
	importPath string
}

// runGolden checks an analyzer against a testdata package: every `want`
// annotation must be matched by a diagnostic on its line, and every
// diagnostic must be claimed by a `want`.
func runGolden(t *testing.T, rel, importPath string, analyzers []*Analyzer) {
	t.Helper()
	runGoldenPkgs(t, []goldenPkg{{rel, importPath}}, analyzers)
}

// runGoldenPkgs is runGolden over a dependency-ordered package list: earlier
// packages are analyzed first so their exported facts are visible to later
// ones, exercising the cross-package fact layer. Wants are parsed from every
// listed directory (file basenames must be unique across them).
func runGoldenPkgs(t *testing.T, specs []goldenPkg, analyzers []*Analyzer) {
	t.Helper()
	pkgs := make([]*Package, len(specs))
	for i, s := range specs {
		pkgs[i] = loadTestPkg(t, s.rel, s.importPath)
	}
	diags := Run(pkgs, analyzers)
	wants := make(map[string][]*expectation)
	for _, pkg := range pkgs {
		for file, ws := range parseWants(t, pkg.Dir) {
			if _, dup := wants[file]; dup {
				t.Fatalf("duplicate golden basename %s across packages", file)
			}
			wants[file] = ws
		}
	}

	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants[base] {
			if w.used || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d:%d: %s: %s", base, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: want %q not reported", file, w.line, w.raw)
			}
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	for _, path := range []string{"patchdb/internal/core/det", "patchdb/internal/ml/det"} {
		runGolden(t, "internal/analysis/testdata/src/determinism/det", path, []*Analyzer{Determinism})
	}
}

// TestDeterminismAllowlistedPackage loads the same violating source under
// package paths outside the deterministic set and expects silence: benches,
// CLIs, and lookalike paths next to a covered tree may read clocks.
func TestDeterminismAllowlistedPackage(t *testing.T) {
	for _, path := range []string{"patchdb/internal/experiments/det", "patchdb/internal/mlx/det"} {
		pkg := loadTestPkg(t, "internal/analysis/testdata/src/determinism/det", path)
		if diags := Run([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) != 0 {
			t.Errorf("%s: allowlisted package reported %d diagnostics: %v", path, len(diags), diags)
		}
	}
}

func TestCtxLoopGolden(t *testing.T) {
	runGolden(t, "internal/analysis/testdata/src/ctxloop/a",
		"patchdb/internal/lintgolden/ctxloop", []*Analyzer{CtxLoop})
}

func TestErrCanonGolden(t *testing.T) {
	runGolden(t, "internal/analysis/testdata/src/errcanon/a",
		"patchdb/internal/lintgolden/errcanon", []*Analyzer{ErrCanon})
}

func TestTelemetrySafeGolden(t *testing.T) {
	runGolden(t, "internal/analysis/testdata/src/telemetrysafe/a",
		"patchdb/internal/lintgolden/telemetrysafe", []*Analyzer{TelemetrySafe})
}

func TestAtomicWriteGolden(t *testing.T) {
	runGolden(t, "internal/analysis/testdata/src/atomicwrite/a",
		"patchdb/cmd/lintgolden", []*Analyzer{AtomicWrite})
}

// TestAtomicWriteAllowlistedPackage loads the same violating source under a
// package path outside the artifact-writer set and expects silence: packages
// that never persist artifacts (and internal/atomicio itself) may call the
// os file functions directly.
func TestAtomicWriteAllowlistedPackage(t *testing.T) {
	pkg := loadTestPkg(t, "internal/analysis/testdata/src/atomicwrite/a",
		"patchdb/internal/lintgolden/atomicwrite")
	if diags := Run([]*Package{pkg}, []*Analyzer{AtomicWrite}); len(diags) != 0 {
		t.Errorf("allowlisted package reported %d diagnostics: %v", len(diags), diags)
	}
}

func TestLogCanonGolden(t *testing.T) {
	runGolden(t, "internal/analysis/testdata/src/logcanon/a",
		"patchdb/internal/store/lintgolden", []*Analyzer{LogCanon})
}

// TestLogCanonAllowlistedPackage loads the same violating source under a
// package path outside the server/pipeline set and expects silence: CLIs and
// experiment harnesses own their stdout and may print freely.
func TestLogCanonAllowlistedPackage(t *testing.T) {
	for _, path := range []string{
		"patchdb/internal/lintgolden/logcanon",
		"patchdb/cmd/lintgolden",
	} {
		pkg := loadTestPkg(t, "internal/analysis/testdata/src/logcanon/a", path)
		if diags := Run([]*Package{pkg}, []*Analyzer{LogCanon}); len(diags) != 0 {
			t.Errorf("allowlisted package %s reported %d diagnostics: %v", path, len(diags), diags)
		}
	}
}

func TestLockDisciplineGolden(t *testing.T) {
	runGolden(t, "internal/analysis/testdata/src/lockdiscipline/a",
		"patchdb/internal/lintgolden/lockdiscipline", []*Analyzer{LockDiscipline})
}

// TestGoroLeakGolden analyzes the helper package first (under its real
// import path, so the golden's import of it resolves to the same fact keys)
// and the golden under a synthetic pipeline-side path where reporting is
// active. The helper.Spin/WatchCtx cases only work if tied-function facts
// cross the package boundary.
func TestGoroLeakGolden(t *testing.T) {
	runGoldenPkgs(t, []goldenPkg{
		{"internal/analysis/testdata/src/goroleak/helper",
			"patchdb/internal/analysis/testdata/src/goroleak/helper"},
		{"internal/analysis/testdata/src/goroleak/a",
			"patchdb/internal/pipeline/lintgolden"},
	}, []*Analyzer{GoroLeak})
}

// TestGoroLeakAllowlistedPackage loads the same violating source under a
// package path outside the server/pipeline set and expects silence: a
// short-lived CLI-less library package owns its own goroutine hygiene.
func TestGoroLeakAllowlistedPackage(t *testing.T) {
	helper := loadTestPkg(t, "internal/analysis/testdata/src/goroleak/helper",
		"patchdb/internal/analysis/testdata/src/goroleak/helper")
	pkg := loadTestPkg(t, "internal/analysis/testdata/src/goroleak/a",
		"patchdb/internal/lintgolden/goroleak")
	if diags := Run([]*Package{helper, pkg}, []*Analyzer{GoroLeak}); len(diags) != 0 {
		t.Errorf("allowlisted package reported %d diagnostics: %v", len(diags), diags)
	}
}

// TestCloseLeakGolden exercises the closes-argument facts across the package
// boundary: helper.CloseIt/Forward close for the caller, helper.Leave does
// not.
func TestCloseLeakGolden(t *testing.T) {
	runGoldenPkgs(t, []goldenPkg{
		{"internal/analysis/testdata/src/closeleak/helper",
			"patchdb/internal/analysis/testdata/src/closeleak/helper"},
		{"internal/analysis/testdata/src/closeleak/a",
			"patchdb/internal/lintgolden/closeleak"},
	}, []*Analyzer{CloseLeak})
}

// TestDeterminismTransitiveGolden: every clock in the golden is at least one
// call away, reachable only through the clockhelper package's clockreach
// facts — including the negative case where a reasoned ignore on the root
// read stops the taint.
func TestDeterminismTransitiveGolden(t *testing.T) {
	runGoldenPkgs(t, []goldenPkg{
		{"internal/analysis/testdata/src/determinism/clockhelper",
			"patchdb/internal/analysis/testdata/src/determinism/clockhelper"},
		{"internal/analysis/testdata/src/determinism/clockdep",
			"patchdb/internal/core/clockdep"},
	}, []*Analyzer{Determinism})
}

// TestDeterminismTransitiveFactOrder guards the harness: analyzed without
// the helper's facts (helper not in the run), the clockdep golden must
// report nothing — proving the golden above passes only because facts
// crossed the package boundary.
func TestDeterminismTransitiveFactOrder(t *testing.T) {
	pkg := loadTestPkg(t, "internal/analysis/testdata/src/determinism/clockdep",
		"patchdb/internal/core/clockdep2")
	if diags := Run([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("clockdep without helper facts reported %d diagnostics: %v", len(diags), diags)
	}
}

// TestSuiteSelfCheck runs the full suite over the analyzer framework and the
// patchdb-lint CLI through the driver, uncached: the linter must hold itself
// to the invariants it enforces.
func TestSuiteSelfCheck(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	diags, stats, err := (&Driver{Loader: l, Analyzers: All()}).Run(l.Root,
		"./internal/analysis", "./internal/analysis/cfg", "./cmd/patchdb-lint")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Units == 0 {
		t.Fatal("no units analyzed")
	}
	for _, d := range diags {
		t.Errorf("self-check: %s", d)
	}
}

// TestGoldenPackagesDiffer guards the harness itself: the determinism golden
// package must produce findings under its deterministic path, so the
// allowlist test above cannot pass vacuously.
func TestGoldenPackagesDiffer(t *testing.T) {
	pkg := loadTestPkg(t, "internal/analysis/testdata/src/determinism/det",
		"patchdb/internal/core/det2")
	diags := Run([]*Package{pkg}, []*Analyzer{Determinism})
	if len(diags) == 0 {
		t.Fatal("deterministic-path load of golden package reported nothing; harness is broken")
	}
	for _, d := range diags {
		if d.Pos.Line <= 0 || d.Pos.Column <= 0 || !strings.HasSuffix(d.Pos.Filename, "det.go") {
			t.Errorf("diagnostic lacks accurate position: %+v", d)
		}
	}
}
