package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"patchdb/internal/analysis/cfg"
)

// CloseLeak is the resource-lifetime checker: a handle acquired in a
// function — an *os.File from the os.Open family, an *http.Response, or a
// module-internal Open*/Acquire* result with a Close method (snapshot
// handles) — must be closed on every path that returns normally. "Closed"
// includes handing the handle to a helper that closes it for the caller:
// such helpers export a closes-argument fact, so the check resolves across
// packages instead of false-positive-ing on cleanup helpers. Handles that
// escape the function (returned, stored, sent, captured) are the new
// owner's responsibility and are not tracked; error-check branches where
// the handle never existed are exempt.
var CloseLeak = &Analyzer{
	Name:    "closeleak",
	Doc:     "files, response bodies, and snapshot handles are closed on every path, with closes-argument facts for helpers",
	Version: 1,
	Run:     runCloseLeak,
}

// closesFactName marks a function that closes one of its parameters; the
// payload is a comma-separated list of zero-based parameter indices.
const closesFactName = "closes"

func runCloseLeak(pass *Pass) {
	closes := computeCloses(pass)
	for _, f := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		funcBodies(f, func(body *ast.BlockStmt) {
			checkCloseFlow(pass, body, closes)
		})
	}
}

// closesIndices resolves which parameter indices fn closes, from the local
// fixed point or imported facts.
func closesIndices(pass *Pass, fn *types.Func, local map[types.Object]map[int]bool) map[int]bool {
	if fn == nil {
		return nil
	}
	if idxs, ok := local[fn]; ok {
		return idxs
	}
	payload, ok := pass.ObjectFact(fn, closesFactName)
	if !ok {
		return nil
	}
	idxs := make(map[int]bool)
	for _, s := range strings.Split(payload, ",") {
		if i, err := strconv.Atoi(s); err == nil {
			idxs[i] = true
		}
	}
	return idxs
}

// computeCloses builds the package-local closes-argument facts: for each
// function, the set of parameters it closes — directly (p.Close(),
// p.Body.Close(), deferred or not, including inside nested literals) or by
// forwarding the parameter to another closing function (fixed point, plus
// imported facts). External test units export nothing.
func computeCloses(pass *Pass) map[types.Object]map[int]bool {
	if strings.HasSuffix(pass.Pkg.ImportPath, ".test") {
		return nil
	}
	type forward struct {
		callee              *types.Func
		calleeIdx, paramIdx int
	}
	type funcInfo struct {
		obj      types.Object
		params   []types.Object
		closed   map[int]bool
		forwards []forward
	}
	infos := make(map[types.Object]*funcInfo)
	var order []types.Object

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
			info := &funcInfo{obj: obj, closed: make(map[int]bool)}
			paramIdx := make(map[types.Object]int)
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if po := pass.Pkg.Info.Defs[name]; po != nil {
						paramIdx[po] = len(info.params)
						info.params = append(info.params, po)
					} else {
						info.params = append(info.params, nil)
					}
				}
			}
			infos[obj] = info
			order = append(order, obj)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if target := closeTarget(pass, call); target != nil {
					if i, ok := paramIdx[target]; ok {
						info.closed[i] = true
					}
					return true
				}
				fn := pass.CalleeFunc(call)
				if fn == nil {
					return true
				}
				for argIdx, arg := range call.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if pi, ok := paramIdx[pass.ObjectOf(id)]; ok {
							info.forwards = append(info.forwards, forward{callee: fn, calleeIdx: argIdx, paramIdx: pi})
						}
					}
				}
				return true
			})
		}
	}

	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			info := infos[obj]
			for _, fw := range info.forwards {
				if info.closed[fw.paramIdx] {
					continue
				}
				var calleeCloses map[int]bool
				if ci, ok := infos[fw.callee]; ok {
					calleeCloses = ci.closed
				} else {
					calleeCloses = closesIndices(pass, fw.callee, nil)
				}
				if calleeCloses[fw.calleeIdx] {
					info.closed[fw.paramIdx] = true
					changed = true
				}
			}
		}
	}

	local := make(map[types.Object]map[int]bool)
	for _, obj := range order {
		info := infos[obj]
		if len(info.closed) == 0 {
			continue
		}
		local[obj] = info.closed
		idxs := make([]int, 0, len(info.closed))
		for i := range info.closed {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		parts := make([]string, len(idxs))
		for i, v := range idxs {
			parts[i] = strconv.Itoa(v)
		}
		pass.ExportObjectFact(obj, closesFactName, strings.Join(parts, ","))
	}
	return local
}

// closeTarget returns the object being closed by call — the x in x.Close()
// or x.Body.Close() — or nil.
func closeTarget(pass *Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	base := ast.Unparen(sel.X)
	if inner, ok := base.(*ast.SelectorExpr); ok && inner.Sel.Name == "Body" {
		base = ast.Unparen(inner.X)
	}
	if id, ok := base.(*ast.Ident); ok {
		return pass.ObjectOf(id)
	}
	return nil
}

// acquisition is one tracked resource: the handle variable, its paired
// error variable (if assigned alongside), and where/what it was acquired.
type acquisition struct {
	res  types.Object
	err  types.Object
	pos  token.Pos
	desc string
	blk  *cfg.Block
	idx  int // index into the block's node list, at the acquiring statement
}

// checkCloseFlow tracks resource acquisitions through the body's CFG.
func checkCloseFlow(pass *Pass, body *ast.BlockStmt, closes map[types.Object]map[int]bool) {
	g := cfg.New(body)

	var acqs []acquisition
	for _, blk := range g.Blocks {
		for idx, node := range blk.Nodes {
			as, ok := node.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			desc, ok := resourceCall(pass, call)
			if !ok {
				continue
			}
			resID, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !ok || resID.Name == "_" {
				continue
			}
			res := pass.ObjectOf(resID)
			if res == nil {
				continue
			}
			var errObj types.Object
			if len(as.Lhs) == 2 {
				if errID, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident); ok && errID.Name != "_" {
					errObj = pass.ObjectOf(errID)
				}
			}
			acqs = append(acqs, acquisition{res: res, err: errObj, pos: as.Pos(), desc: desc, blk: blk, idx: idx})
		}
	}
	if len(acqs) == 0 {
		return
	}

	for _, acq := range acqs {
		if resourceEscapes(pass, body, acq, closes) {
			continue
		}
		if deferredClose(pass, g, acq, closes) {
			continue
		}
		if leaksOnSomePath(pass, g, acq, closes) {
			pass.Reportf(acq.pos, "%s acquired here is not closed on every path; close it on each return, defer the Close, or hand it to a closing helper", acq.desc)
		}
	}
}

// resourceCall classifies a call as a resource acquisition.
func resourceCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return "", false // conversion, not a call
	}
	fn := pass.CalleeFunc(call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" {
		switch fn.Name() {
		case "Open", "OpenFile", "Create", "CreateTemp":
			return "os." + fn.Name() + " file", true
		}
	}
	t := firstResultType(pass, call)
	if t == nil {
		return "", false
	}
	if named := namedPointee(t); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response" {
			return "http response (its Body)", true
		}
		// Module-internal openers handing out closable handles (snapshot
		// readers and friends): the name says "you own this", the Close
		// method says "and must release it".
		if fn != nil && fn.Pkg() != nil && isModulePath(fn.Pkg().Path()) &&
			(strings.HasPrefix(fn.Name(), "Open") || strings.HasPrefix(fn.Name(), "Acquire")) &&
			hasCloseMethod(t) {
			return fmt.Sprintf("%s.%s handle", obj.Pkg().Name(), obj.Name()), true
		}
	}
	return "", false
}

func isModulePath(path string) bool {
	return path == "patchdb" || strings.HasPrefix(path, "patchdb/")
}

// firstResultType returns the (first) result type of a call expression.
func firstResultType(pass *Pass, call *ast.CallExpr) types.Type {
	tv, ok := pass.Pkg.Info.Types[ast.Expr(call)]
	if !ok || tv.Type == nil {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return nil
		}
		return tuple.At(0).Type()
	}
	return tv.Type
}

// namedPointee unwraps *Named to its Named type.
func namedPointee(t types.Type) *types.Named {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return nil
	}
	named, _ := types.Unalias(ptr.Elem()).(*types.Named)
	return named
}

// hasCloseMethod reports whether t's method set includes Close.
func hasCloseMethod(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	_, ok := obj.(*types.Func)
	return ok
}

// resourceEscapes reports whether the handle's ownership leaves the
// function: returned, assigned onward, stored in a composite/field/index,
// sent on a channel, address-taken, or captured by a function literal that
// is not itself a deferred closer. Escaped handles are the new owner's
// problem — tracking them here would be guesswork.
func resourceEscapes(pass *Pass, body *ast.BlockStmt, acq acquisition, closes map[types.Object]map[int]bool) bool {
	escaped := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != acq.res {
			return true
		}
		if identEscapes(pass, stack, acq, closes) {
			escaped = true
		}
		return true
	})
	return escaped
}

// identEscapes classifies one use of the resource identifier (the last
// stack entry) by its enclosing context.
func identEscapes(pass *Pass, stack []ast.Node, acq acquisition, closes map[types.Object]map[int]bool) bool {
	// Capture by a nested function literal escapes — the closure owns an
	// alias whose lifetime the CFG walk cannot see — unless the literal is
	// a deferred closure that closes the handle (that idiom is a close on
	// every subsequent path, handled by deferredClose).
	for i := len(stack) - 2; i >= 1; i-- {
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return !litIsDeferredCloser(pass, stack, i, acq, closes)
		}
	}
	for i := len(stack) - 2; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.SelectorExpr:
			continue // res.Close, res.Body, res.Name — member access, keep looking up
		case *ast.ParenExpr:
			continue
		case *ast.AssignStmt:
			// The acquiring assignment itself does not escape; any other
			// assignment position (alias, field store, swap) does.
			return parent.Pos() != acq.pos
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.IndexExpr:
			return true
		case *ast.UnaryExpr:
			return parent.Op == token.AND
		case *ast.CallExpr:
			// Argument passing is neutral (bufio.NewReader(f) does not take
			// ownership) — closing helpers are recognized by the flow walk.
			return false
		case ast.Stmt:
			return false
		}
	}
	return false
}

// litIsDeferredCloser reports whether the function literal at stack[i] is
// the operand of a defer statement and closes the resource.
func litIsDeferredCloser(pass *Pass, stack []ast.Node, i int, acq acquisition, closes map[types.Object]map[int]bool) bool {
	if i < 2 {
		return false
	}
	if _, ok := stack[i-1].(*ast.CallExpr); !ok {
		return false
	}
	if _, ok := stack[i-2].(*ast.DeferStmt); !ok {
		return false
	}
	lit := stack[i].(*ast.FuncLit)
	closed := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && closeEventMatches(pass, c, acq.res, closes) {
			closed = true
		}
		return true
	})
	return closed
}

// closeEventMatches reports whether call closes the resource: res.Close(),
// res.Body.Close(), or res forwarded to a function whose closes fact covers
// that argument index.
func closeEventMatches(pass *Pass, call *ast.CallExpr, res types.Object, closes map[types.Object]map[int]bool) bool {
	if closeTarget(pass, call) == res {
		return true
	}
	fn := pass.CalleeFunc(call)
	if fn == nil {
		return false
	}
	idxs := closesIndices(pass, fn, closes)
	if len(idxs) == 0 {
		return false
	}
	for argIdx, arg := range call.Args {
		if !idxs[argIdx] {
			continue
		}
		base := ast.Unparen(arg)
		if inner, ok := base.(*ast.SelectorExpr); ok && inner.Sel.Name == "Body" {
			base = ast.Unparen(inner.X)
		}
		if id, ok := base.(*ast.Ident); ok && pass.ObjectOf(id) == res {
			return true
		}
	}
	return false
}

// deferredClose reports whether some deferred call closes the resource —
// a defer covers every exit after registration, which for the supported
// acquire-then-defer idiom means every path that matters.
func deferredClose(pass *Pass, g *cfg.Graph, acq acquisition, closes map[types.Object]map[int]bool) bool {
	for _, d := range g.Defers {
		if closeEventMatches(pass, d.Call, acq.res, closes) {
			return true
		}
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			found := false
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && closeEventMatches(pass, c, acq.res, closes) {
					found = true
				}
				return true
			})
			if found {
				return true
			}
		}
	}
	return false
}

// leaksOnSomePath walks the CFG from the acquisition looking for a path to
// the normal exit with no close. Error-guard branches on the paired error
// variable are exempt — on `err != nil` the handle never existed. Panic
// exits are ignored.
func leaksOnSomePath(pass *Pass, g *cfg.Graph, acq acquisition, closes map[types.Object]map[int]bool) bool {
	closesInBlock := func(blk *cfg.Block, from int) bool {
		for i := from; i < len(blk.Nodes); i++ {
			if _, ok := blk.Nodes[i].(*ast.DeferStmt); ok {
				continue // handled by deferredClose
			}
			found := false
			inspectNoFuncLit(blk.Nodes[i], func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && closeEventMatches(pass, c, acq.res, closes) {
					found = true
				}
				return true
			})
			if found {
				return true
			}
		}
		return false
	}

	visited := make(map[*cfg.Block]bool)
	visited[acq.blk] = true
	leaks := false
	var walk func(blk *cfg.Block, from int)
	walk = func(blk *cfg.Block, from int) {
		if leaks {
			return
		}
		if closesInBlock(blk, from) {
			return // this path closed the handle
		}
		succs := blk.Succs
		if blk.Cond != nil && len(succs) == 2 && acq.err != nil {
			switch errGuard(pass, blk.Cond, acq.err) {
			case 1: // err != nil: true branch is the no-handle path
				succs = succs[1:2]
			case -1: // err == nil: false branch is the no-handle path
				succs = succs[0:1]
			}
		}
		for _, succ := range succs {
			switch succ {
			case g.Exit:
				leaks = true
			case g.PanicExit:
				// exempt
			default:
				if !visited[succ] {
					visited[succ] = true
					walk(succ, 0)
				}
			}
		}
	}
	walk(acq.blk, acq.idx+1)
	return leaks
}

// errGuard classifies cond as a nil-check on errObj: 1 when the true
// branch is the error path (err != nil), -1 when the false branch is
// (err == nil), 0 when cond is something else.
func errGuard(pass *Pass, cond ast.Expr, errObj types.Object) int {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return 0
	}
	var id *ast.Ident
	switch {
	case isNilExpr(be.Y):
		id, _ = ast.Unparen(be.X).(*ast.Ident)
	case isNilExpr(be.X):
		id, _ = ast.Unparen(be.Y).(*ast.Ident)
	default:
		return 0
	}
	if id == nil || pass.ObjectOf(id) != errObj {
		return 0
	}
	if be.Op == token.NEQ {
		return 1
	}
	return -1
}
