// Package analysis is patchdb's stdlib-only static-analysis framework: a
// module-aware file-set loader with per-package type-checking (load.go), a
// small analyzer API with position-accurate diagnostics, line-scoped
// `//lint:ignore <check> <reason>` suppression, and the analyzers that
// machine-check the repo's construction-hygiene invariants:
//
//   - determinism: no wall-clock reads, process-global randomness, or
//     order-sensitive map iteration in the deterministic build packages
//   - ctxloop: worker loops in context-aware functions must observe
//     cancellation on their hot path
//   - errcanon: canonical errors are matched with errors.Is and wrapped
//     with %w, never compared or reformatted away
//   - telemetrysafe: possibly-nil *telemetry.Hub values are guarded before
//     their fields are dereferenced
//   - atomicwrite: artifact-writing packages persist files through
//     internal/atomicio's temp+fsync+rename, never direct os writes
//   - logcanon: server/pipeline packages log through the telemetry hub's
//     structured slog logger, never fmt.Print* or log.Print*
//   - lockdiscipline: mutexes are never copied by value, every Lock is
//     paired with an Unlock on every path, and no lock is held across a
//     blocking channel operation (flow-sensitive, via internal/analysis/cfg)
//   - goroleak: goroutines in the server/pipeline packages exit via ctx,
//     a WaitGroup, or a closable channel — never leak past shutdown
//   - closeleak: os.File handles and http.Response bodies are closed on
//     every path, with closes-argument facts so helpers that close for
//     their caller don't trip false positives
//
// Beyond the per-package syntactic checks, the framework has a small
// control-flow-graph package (internal/analysis/cfg) for path-sensitive
// analyzers and a cross-package fact layer (facts.go): analyzers export
// per-object facts that the incremental driver (driver.go) propagates in
// dependency order, so "transitively calls time.Now" and "closes its
// argument" resolve across package boundaries. The driver caches per-unit
// results under .lintcache/ keyed by a content hash of (sources, config,
// analyzer versions, imported facts) and analyzes packages concurrently in
// topological waves — a warm run re-checks only what changed.
//
// The cmd/patchdb-lint CLI runs the suite over ./... and exits non-zero on
// findings, making the invariants part of `make verify`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the check identifier used in output and in lint:ignore
	// directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Version enters the incremental driver's cache key: bump it whenever
	// the analyzer's logic (diagnostics or exported facts) changes, so
	// stale cache entries invalidate.
	Version int
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, CtxLoop, ErrCanon, TelemetrySafe, AtomicWrite, LogCanon,
		LockDiscipline, GoroLeak, CloseLeak,
	}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Facts resolves object facts: this unit's own exports layered over the
	// facts imported from already-analyzed dependency packages.
	Facts FactView

	diags      *[]Diagnostic
	exports    *FactSet
	directives map[string][]*ignoreDirective // filename -> directives of this unit
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ExportObjectFact records a fact on obj under this analyzer's namespace
// ("analyzer/name"). Facts on objects without a stable cross-load key
// (locals, builtins) are silently dropped.
func (p *Pass) ExportObjectFact(obj types.Object, name, payload string) {
	if p.exports != nil {
		p.exports.add(ObjKey(obj), p.Analyzer.Name+"/"+name, payload)
	}
}

// ObjectFact resolves a fact of this analyzer on obj: first this unit's own
// exports, then the imported facts of dependency packages.
func (p *Pass) ObjectFact(obj types.Object, name string) (string, bool) {
	if p.Facts == nil {
		return "", false
	}
	return p.Facts.Fact(ObjKey(obj), p.Analyzer.Name+"/"+name)
}

// Suppressed reports whether a diagnostic of this analyzer's check at pos
// would be suppressed by a lint:ignore directive. Analyzers that derive
// facts from would-be findings (determinism's clock-reachability seeds)
// use this so a reasoned ignore also stops the taint from propagating to
// callers.
func (p *Pass) Suppressed(pos token.Pos) bool {
	position := p.Pkg.Fset.Position(pos)
	for _, dir := range p.directives[position.Filename] {
		if dir.matches(p.Analyzer.Name, position.Line) {
			return true
		}
	}
	return false
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object an identifier denotes (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// CalleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil (indirect calls, conversions, builtins).
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the conventional path:line:col form. Paths
// are emitted as stored; Run rewrites them relative to the module root.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// DirectiveCheck names the internal check that validates lint:ignore
// directives themselves.
const DirectiveCheck = "lintdirective"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	checks map[string]bool
	reason string
}

// matches reports whether the directive suppresses a diagnostic of the given
// check on the given line of the same file: the directive covers its own
// line (trailing comment) and the line directly below (comment-above-
// statement form).
func (d *ignoreDirective) matches(check string, line int) bool {
	if !d.checks[check] {
		return false
	}
	return line == d.pos.Line || line == d.pos.Line+1
}

// parseDirectives extracts lint:ignore directives from a file, reporting
// malformed ones (missing check list or missing reason) as diagnostics.
func parseDirectives(fset *token.FileSet, f *ast.File) (dirs []*ignoreDirective, malformed []Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) < 2 {
				malformed = append(malformed, Diagnostic{
					Pos:     pos,
					Check:   DirectiveCheck,
					Message: "malformed directive: want //lint:ignore <check>[,<check>] <reason>",
				})
				continue
			}
			checks := make(map[string]bool)
			for _, name := range strings.Split(fields[0], ",") {
				if name != "" {
					checks[name] = true
				}
			}
			dirs = append(dirs, &ignoreDirective{
				pos:    pos,
				checks: checks,
				reason: strings.Join(fields[1:], " "),
			})
		}
	}
	return dirs, malformed
}

// UnitResult is the outcome of analyzing one package unit: the surviving
// (post-suppression) diagnostics and the facts the unit exports for
// dependent packages — everything the incremental driver caches.
type UnitResult struct {
	Diagnostics []Diagnostic
	Facts       *FactSet
}

// RunUnit executes the analyzers over one package unit with the given
// imported facts, applies lint:ignore suppression, and returns the
// surviving diagnostics (sorted) and exported facts. Malformed directives
// are reported under the "lintdirective" check and cannot be suppressed.
func RunUnit(pkg *Package, analyzers []*Analyzer, imported FactView) UnitResult {
	var raw []Diagnostic
	var malformed []Diagnostic
	directives := make(map[string][]*ignoreDirective) // filename -> directives
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		dirs, bad := parseDirectives(pkg.Fset, f)
		directives[name] = append(directives[name], dirs...)
		malformed = append(malformed, bad...)
	}

	exports := NewFactSet()
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Pkg:        pkg,
			Facts:      factUnion{own: exports, imported: imported},
			diags:      &raw,
			exports:    exports,
			directives: directives,
		}
		a.Run(pass)
	}

	var out []Diagnostic
	seen := make(map[string]bool)
	for _, d := range raw {
		suppressed := false
		for _, dir := range directives[d.Pos.Filename] {
			if dir.matches(d.Check, d.Pos.Line) {
				suppressed = true
				break
			}
		}
		if suppressed {
			continue
		}
		key := d.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	for _, d := range malformed {
		key := d.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	SortDiagnostics(out)
	return UnitResult{Diagnostics: out, Facts: exports}
}

// Run executes the analyzers over the packages in order, threading each
// unit's exported facts into the later ones — list dependency packages
// before their dependents to exercise cross-package facts. Diagnostics are
// suppressed per lint:ignore directives and returned globally sorted.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := NewFactSet()
	var out []Diagnostic
	for _, pkg := range pkgs {
		res := RunUnit(pkg, analyzers, facts)
		facts.Merge(res.Facts)
		out = append(out, res.Diagnostics...)
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders diagnostics by (file, line, column, check,
// message) — the stable order both output modes and the cache emit, so CI
// diffs are deterministic at any worker count.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
