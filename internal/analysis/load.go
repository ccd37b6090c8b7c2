package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Package is one type-checked unit of source: a directory's library files
// (plus its in-package tests) or a directory's external test package.
type Package struct {
	// ImportPath is the package's module-relative import path. External test
	// packages carry a ".test" suffix so the two units of one directory stay
	// distinguishable.
	ImportPath string
	// Dir is the absolute directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved against the module
// tree on disk, everything else is type-checked from GOROOT source via the
// go/importer "source" compiler. No `go list` subprocess, no export data —
// the loader works in any environment that has GOROOT sources.
type Loader struct {
	// Root is the module root directory (the one holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	fset    *token.FileSet
	std     types.ImporterFrom
	deps    map[string]*types.Package // import cache: non-test files only
	loading map[string]bool           // cycle guard

	// mu serializes imports: the GOROOT source importer and the deps map
	// are not safe for the driver's concurrent type-checks.
	mu sync.Mutex
	// sourceLoads counts type-checks performed from source (units and
	// module-internal imports; GOROOT packages are excluded). The driver's
	// warm-cache invariant is that this stays zero.
	sourceLoads atomic.Int64
}

// SourceLoads reports how many packages have been type-checked from source
// by this loader.
func (l *Loader) SourceLoads() int64 { return l.sourceLoads.Load() }

// NewLoader creates a loader for the module rooted at root. The module path
// is read from root's go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: read go.mod: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Root:    root,
		Module:  module,
		fset:    fset,
		std:     std,
		deps:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load from
// the module tree (library files only, matching the compiler's view of an
// import), anything else defers to the GOROOT source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.importLocked(path)
}

func (l *Loader) importLocked(path string) (*types.Package, error) {
	if path != l.Module && !strings.HasPrefix(path, l.Module+"/") {
		return l.std.ImportFrom(path, l.Root, 0)
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	pdir := l.dirFor(path)
	files, err := l.parseDir(pdir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	pkg, _, err := l.checkWith(lockedImporter{l}, path, files)
	if err != nil {
		return nil, err
	}
	l.deps[path] = pkg
	return pkg, nil
}

// lockedImporter resolves nested imports while the loader's mutex is
// already held, avoiding re-entrant locking during a module-internal load.
type lockedImporter struct{ l *Loader }

func (li lockedImporter) Import(path string) (*types.Package, error) {
	return li.l.importLocked(path)
}

func (li lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return li.l.importLocked(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return filepath.Join(l.Root, rel)
}

// pathFor maps a directory under Root to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if keep != nil && !keep(name) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	return l.checkWith(l, path, files)
}

func (l *Loader) checkWith(imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	l.sourceLoads.Add(1)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var errs []error
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err)
			}
		},
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, nil, fmt.Errorf("type-check %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return pkg, info, nil
}

// LoadDir loads the library (non-test) files of one directory as a single
// package under the given import path. The path does not need to correspond
// to the directory's real location — golden-test packages use synthetic
// paths to exercise path-gated analyzers.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, info, err := l.check(importPath, files)
	if err != nil {
		return nil, err
	}
	return &Package{ImportPath: importPath, Dir: dir, Fset: l.fset, Files: files, Types: pkg, Info: info}, nil
}

// ResolveDirs expands patterns ("./...", "dir/...", "dir") relative to cwd
// into the sorted list of candidate package directories, skipping testdata,
// vendor, hidden, and underscore-prefixed directories on recursive walks.
func (l *Loader) ResolveDirs(cwd string, patterns ...string) ([]string, error) {
	dirSet := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		dir = filepath.Clean(dir)
		if !recursive {
			dirSet[dir] = true
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(p)
			if p != dir && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			dirSet[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadUnit type-checks one unit of a directory: the base package (library
// plus in-package tests) when external is false, the external _test package
// when true.
func (l *Loader) LoadUnit(dir string, external bool) (*Package, error) {
	all, err := l.parseDir(dir, nil)
	if err != nil {
		return nil, err
	}
	importPath, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") == external {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no files for unit %s (external=%v)", importPath, external)
	}
	if external {
		importPath += ".test"
	}
	pkg, info, err := l.check(importPath, files)
	if err != nil {
		return nil, err
	}
	return &Package{ImportPath: importPath, Dir: dir, Fset: l.fset, Files: files, Types: pkg, Info: info}, nil
}
