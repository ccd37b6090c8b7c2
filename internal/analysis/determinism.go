package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deterministicPath reports whether an import path belongs to the packages
// whose output must be a pure function of the configured seed: the builder's
// root package, the core engines, the pipeline/crawl/corpus layers, the
// checkpoint journal (a resumed build must be bit-identical to one that
// never crashed, so the journal can record no clocks or randomness), and the
// ML layer (Tables III, IV and VI are byte-identical at a fixed seed only
// while every model draws from its own seeded generator in a fixed order).
// The experiments layer and cmd/ binaries legitimately read wall clocks for
// reporting.
func deterministicPath(path string) bool {
	switch path {
	case "patchdb",
		"patchdb/internal/pipeline",
		"patchdb/internal/nvd",
		"patchdb/internal/corpus",
		"patchdb/internal/checkpoint":
		return true
	}
	for _, tree := range []string{"patchdb/internal/core", "patchdb/internal/ml"} {
		if path == tree || strings.HasPrefix(path, tree+"/") {
			return true
		}
	}
	return false
}

// clockExemptPath reports whether a package is sanctioned to read clocks
// and process-global randomness by design, so calls into it never taint
// callers with clock-reachability facts: the telemetry layer (timing IS its
// job and none of it feeds build output), the retry layer (backoff and
// jitter are real-time behavior; crawl determinism is about output order,
// not timing), and the fault injector.
func clockExemptPath(path string) bool {
	for _, prefix := range []string{
		"patchdb/internal/telemetry",
		"patchdb/internal/retry",
		"patchdb/internal/faults",
	} {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}

// globalRandConstructors are the math/rand package functions that build
// explicitly seeded generators — the sanctioned way to get randomness.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism enforces the seed-purity contract of the build packages: no
// wall-clock reads (time.Now / time.Since), no process-global math/rand
// calls (their shared source is seeded from the clock), no map-range loops
// that feed ordered output without a sort — and, via call-graph facts, no
// calls to module functions that *transitively* reach a clock or the global
// rand source, across package boundaries. A reasoned lint:ignore on the
// direct clock read stops the taint: the ignore asserts the timing never
// feeds build output, so callers stay clean. Test files are exempt — the
// contract covers what ships in a build, and benchmarks time themselves by
// design.
var Determinism = &Analyzer{
	Name:    "determinism",
	Doc:     "wall clocks, global randomness (direct or transitive), and ordered map iteration are banned in deterministic build packages",
	Version: 3,
	Run:     runDeterminism,
}

// clockReachFact is the fact name recording that a function transitively
// reaches a wall clock or the process-global rand source; the payload is a
// short witness chain ("nearestlink.Search -> time.Now").
const clockReachFact = "clockreach"

func runDeterminism(pass *Pass) {
	tainted := computeClockReach(pass)
	if !deterministicPath(pass.Pkg.ImportPath) {
		return
	}
	for _, f := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
				checkTransitiveClock(pass, n, tainted)
			case *ast.RangeStmt:
				checkMapRange(pass, n, stack)
			}
			return true
		})
	}
}

// computeClockReach builds the package-local clock-reachability closure and
// exports a clockreach fact per tainted package-level function. Seeds are
// unsuppressed direct clock/global-rand calls plus calls to imported module
// functions already carrying the fact; taint then propagates over the local
// call graph to a fixed point. Clock-exempt packages and external test
// units export nothing — nothing imports them, and their clocks are
// sanctioned by design.
func computeClockReach(pass *Pass) map[types.Object]string {
	if clockExemptPath(pass.Pkg.ImportPath) || strings.HasSuffix(pass.Pkg.ImportPath, ".test") {
		return nil
	}
	type funcInfo struct {
		obj     types.Object
		witness string        // "" until tainted
		callees []*types.Func // local call edges
	}
	infos := make(map[types.Object]*funcInfo)
	var order []types.Object // declaration order, for deterministic fixed-point witnesses

	for _, f := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			info := &funcInfo{obj: obj}
			infos[obj] = info
			order = append(order, obj)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if desc, bad := directClockCall(pass, call); bad {
					if info.witness == "" && !pass.Suppressed(call.Pos()) {
						info.witness = desc
					}
					return true
				}
				fn := pass.CalleeFunc(call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if fn.Pkg() == pass.Pkg.Types {
					info.callees = append(info.callees, fn)
				} else if info.witness == "" {
					if w, ok := pass.ObjectFact(fn, clockReachFact); ok {
						info.witness = chainWitness(funcDisplayName(fn), w)
					}
				}
				return true
			})
		}
	}

	// Propagate taint over local call edges to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			info := infos[obj]
			if info.witness != "" {
				continue
			}
			for _, callee := range info.callees {
				if ci, ok := infos[callee]; ok && ci.witness != "" {
					info.witness = chainWitness(funcDisplayName(callee), ci.witness)
					changed = true
					break
				}
			}
		}
	}

	tainted := make(map[types.Object]string)
	for _, obj := range order {
		if info := infos[obj]; info.witness != "" {
			tainted[obj] = info.witness
			pass.ExportObjectFact(obj, clockReachFact, info.witness)
		}
	}
	return tainted
}

// checkTransitiveClock flags calls (in deterministic packages) to module
// functions that transitively reach a clock, resolved through local taint
// or imported clockreach facts.
func checkTransitiveClock(pass *Pass, call *ast.CallExpr, tainted map[types.Object]string) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	var witness string
	if fn.Pkg() == pass.Pkg.Types {
		witness = tainted[fn]
	} else if w, ok := pass.ObjectFact(fn, clockReachFact); ok {
		witness = w
	}
	if witness == "" {
		return
	}
	pass.Reportf(call.Pos(),
		"call to %s transitively reaches a wall clock or global rand (%s) in deterministic build path; inject a clock/seed, or lint:ignore the root read if it is telemetry-only",
		funcDisplayName(fn), witness)
}

// chainWitness prepends a hop to a witness chain, keeping chains readable
// by eliding middles past three hops.
func chainWitness(hop, rest string) string {
	if strings.Count(rest, " -> ") >= 2 {
		if i := strings.LastIndex(rest, " -> "); i >= 0 {
			return hop + " -> ... ->" + rest[i+3:]
		}
	}
	return hop + " -> " + rest
}

// funcDisplayName renders a function for diagnostics: pkg.Name or
// pkg.(Recv).Name.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			name = "(" + named.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// directClockCall reports whether call is a direct banned clock or
// global-rand read, with a short description for witness chains.
func directClockCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return "", false // methods (e.g. on an explicitly seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if !globalRandConstructors[fn.Name()] {
			return "rand." + fn.Name(), true
		}
	}
	return "", false
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. on an explicitly seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in deterministic build path; inject a clock or keep timing in telemetry-only state", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"process-global rand.%s uses the shared clock-seeded source; use a rand.New(rand.NewSource(seed)) owned by the caller", fn.Name())
		}
	}
}

// checkMapRange flags `for ... := range m` over a map when the loop body
// feeds ordered output: appending to a slice declared outside the loop that
// is never sorted afterwards in the same function, or writing directly to a
// writer/printer. Map iteration order changes run to run, so both leak
// nondeterminism into build output.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	fnBody := enclosingFuncBody(stack)

	var appendTargets []*ast.Ident
	directWrite := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// target = append(target, ...) with target declared outside the loop.
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(n.Lhs) <= i {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if obj := pass.ObjectOf(id); obj != nil {
					if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
						continue // a local function shadowing append
					}
				}
				lhs, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.ObjectOf(lhs)
				if obj == nil || withinNode(rng, obj.Pos()) {
					continue
				}
				appendTargets = append(appendTargets, lhs)
			}
		case *ast.CallExpr:
			if isOrderedWrite(pass, n) {
				directWrite = true
			}
		}
		return true
	})

	if directWrite {
		pass.Reportf(rng.For, "map iteration order feeds output directly; collect and sort the keys first")
		return
	}
	for _, target := range appendTargets {
		if fnBody != nil && sortedAfter(pass, fnBody, target, rng.End()) {
			continue
		}
		pass.Reportf(rng.For, "map iteration order feeds %q without a sort; sort the keys (or the result) before it is consumed", target.Name)
		return // one finding per loop is enough
	}
}

// isOrderedWrite reports whether call emits bytes whose order is observable:
// fmt printing to a writer/stdout, or Write* methods on builders/buffers.
func isOrderedWrite(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
		return true
	}
	if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil && strings.HasPrefix(fn.Name(), "Write") {
		switch types.TypeString(sig.Recv().Type(), nil) {
		case "*strings.Builder", "*bytes.Buffer":
			return true
		}
	}
	return false
}

// sortedAfter reports whether target is passed to a sort.* / slices.* call
// after pos within body — the canonical collect-then-sort idiom.
func sortedAfter(pass *Pass, body *ast.BlockStmt, target *ast.Ident, pos token.Pos) bool {
	obj := pass.ObjectOf(target)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := pass.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					mentioned = true
				}
				return !mentioned
			})
			if mentioned {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// enclosingFuncBody returns the body of the innermost function declaration
// or literal on the node stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	bodies := enclosingFuncBodies(stack)
	if len(bodies) == 0 {
		return nil
	}
	return bodies[0]
}

// enclosingFuncBodies returns the bodies of all function declarations and
// literals on the node stack, innermost first.
func enclosingFuncBodies(stack []ast.Node) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			bodies = append(bodies, fn.Body)
		case *ast.FuncLit:
			bodies = append(bodies, fn.Body)
		}
	}
	return bodies
}

// withinNode reports whether pos falls inside n's source range.
func withinNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
