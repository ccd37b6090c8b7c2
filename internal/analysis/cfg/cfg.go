// Package cfg builds intraprocedural control-flow graphs over Go function
// bodies for the flow-sensitive analyzers in internal/analysis (lock
// discipline, goroutine-leak, and close-on-all-paths checks). It is
// deliberately small and stdlib-only: blocks hold the statements (and branch
// conditions) they execute in order, edges follow every structured construct
// — if/else, the three for forms, range, switch/type-switch with
// fallthrough, select, labeled break/continue, and goto — and two synthetic
// exits distinguish how a function can end:
//
//   - Exit: reached by return statements and by falling off the end of the
//     body. "Must happen on every path" properties are checked against paths
//     that reach Exit.
//   - PanicExit: reached by explicit panic(...) calls, os.Exit, and
//     runtime.Goexit. Analyzers generally ignore these paths — any call can
//     panic, so flagging explicit panics alone would be arbitrary noise.
//
// Deferred calls are collected (in registration order, with their positions)
// rather than modeled as edges: a defer runs on every exit after its
// registration, which is exactly the query analyzers ask ("is there a defer
// of mu.Unlock / f.Close?"), and modeling the defer chain as edges would
// double the graph for no added precision.
//
// Function literals inside the body are NOT descended into — each literal
// gets its own graph via New when the analyzer needs one.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one straight-line run of statements. Nodes holds, in execution
// order, the statements of the block plus any branch condition evaluated at
// its end. Succs are the possible successors; when the block ends in a
// two-way conditional branch, Cond is the condition and Succs[0]/Succs[1]
// are the true/false targets.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Cond  ast.Expr

	// Range is set on a range-loop head block: the block's last node is the
	// ranged expression and each iteration re-enters here. Analyzers use it
	// to recognize blocking channel ranges without re-walking the body.
	Range *ast.RangeStmt
	// Select is set on a select dispatch block: control blocks here until
	// one comm clause is ready. The clause statements live in the successor
	// blocks.
	Select *ast.SelectStmt

	// kind labels synthetic blocks for debugging output.
	kind string
}

// String renders the block for test failure messages.
func (b *Block) String() string {
	if b.kind != "" {
		return fmt.Sprintf("b%d(%s)", b.Index, b.kind)
	}
	return fmt.Sprintf("b%d", b.Index)
}

// Defer is one deferred call, in registration order.
type Defer struct {
	Call *ast.CallExpr
	Pos  token.Pos
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Blocks    []*Block
	Entry     *Block
	Exit      *Block // returns and fall-off-the-end
	PanicExit *Block // explicit panic / os.Exit / runtime.Goexit
	Defers    []Defer
}

// New builds the graph of one function body (from an *ast.FuncDecl or
// *ast.FuncLit). A nil body yields a trivial Entry→Exit graph.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		labels:      make(map[string]*labelTargets),
		labelBlocks: make(map[string]*Block),
		gotos:       make(map[string][]*Block),
	}
	b.g = &Graph{}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.g.PanicExit = b.newBlock("panic")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body is a normal exit.
	b.jump(b.g.Exit)
	b.patchGotos()
	return b.g
}

// labelTargets records where a labeled break/continue lands.
type labelTargets struct {
	breakTo    *Block
	continueTo *Block
}

type builder struct {
	g   *Graph
	cur *Block // nil while the current position is unreachable

	// breakTo/continueTo are the innermost unlabeled targets.
	breakTo    *Block
	continueTo *Block

	// pendingLabel is set between a LabeledStmt and the loop/switch it
	// labels.
	pendingLabel string
	labels       map[string]*labelTargets
	// labelBlocks maps label name -> block starting at the label (goto
	// targets); gotos seen before their label are patched at the end.
	labelBlocks map[string]*Block
	gotos       map[string][]*Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge links from -> to.
func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an unconditional edge to target and
// leaves the builder unreachable until a new block starts.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = nil
}

// startBlock begins a new block and makes it current. If the previous block
// was still open it falls through into the new one.
func (b *builder) startBlock(blk *Block) *Block {
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

// add appends a node to the current block, opening a fresh (unreachable)
// block if control cannot reach here — dead code still gets nodes so
// analyzers can see it, it just has no predecessors.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label both names the following loop/switch (for labeled
		// break/continue) and is a goto target.
		start := b.newBlock("label:" + s.Label.Name)
		b.startBlock(start)
		b.labelBlocks[s.Label.Name] = start
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if t := b.labels[s.Label.Name]; t != nil {
					b.jump(t.breakTo)
					return
				}
			}
			if b.breakTo != nil {
				b.jump(b.breakTo)
				return
			}
			b.cur = nil
		case token.CONTINUE:
			if s.Label != nil {
				if t := b.labels[s.Label.Name]; t != nil && t.continueTo != nil {
					b.jump(t.continueTo)
					return
				}
			}
			if b.continueTo != nil {
				b.jump(b.continueTo)
				return
			}
			b.cur = nil
		case token.GOTO:
			if s.Label != nil {
				if t, ok := b.gotoTarget(s.Label.Name); ok {
					b.jump(t)
				} else if b.cur != nil {
					b.gotos[s.Label.Name] = append(b.gotos[s.Label.Name], b.cur)
					b.cur = nil
				}
				return
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by switchStmt; a stray fallthrough ends the block.
			b.cur = nil
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		cond.Cond = s.Cond
		after := b.newBlock("if.after")
		then := b.newBlock("if.then")
		b.edge(cond, then)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cond, els)
			b.cur = then
			b.stmt(s.Body)
			b.jump(after)
			b.cur = els
			b.stmt(s.Else)
			b.jump(after)
		} else {
			b.edge(cond, after)
			b.cur = then
			b.stmt(s.Body)
			b.jump(after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			head.Cond = s.Cond
			b.edge(head, body)
			b.edge(head, after)
		} else {
			b.edge(head, body)
		}
		b.loopBody(s.Body, body, after, post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.jump(head)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.startBlock(head)
		b.add(s.X) // the ranged expression; body statements get their own blocks
		head.Range = s
		b.edge(head, body)
		b.edge(head, after)
		b.loopBody(s.Body, body, after, head)
		b.cur = after

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		// The select blocks in a dedicated dispatch block; its clause
		// statements live in the case blocks below.
		sel := b.startBlock(b.newBlock("select"))
		sel.Select = s
		after := b.newBlock("select.after")
		savedBreak := b.breakTo
		b.breakTo = after
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.edge(sel, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.jump(after)
		}
		b.breakTo = savedBreak
		// A case-less select{} blocks forever: sel has no successors and
		// `after` stays unreachable.
		b.cur = after

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, Defer{Call: s.Call, Pos: s.Pos()})

	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			b.jump(b.g.PanicExit)
		}

	default:
		// Assignments, declarations, sends, inc/dec, go, empty: plain nodes.
		b.add(s)
	}
}

// loopBody builds a loop body with break/continue targets registered (and
// bound to the pending label, if the loop was labeled), then closes the back
// edge to cont.
func (b *builder) loopBody(body *ast.BlockStmt, start, breakTo, continueTo *Block) {
	savedBreak, savedCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = breakTo, continueTo
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = &labelTargets{breakTo: breakTo, continueTo: continueTo}
		b.pendingLabel = ""
	}
	b.cur = start
	b.stmt(body)
	b.jump(continueTo)
	b.breakTo, b.continueTo = savedBreak, savedCont
}

// switchStmt builds expression and type switches: the tag block branches to
// every case (and to after when there is no default); fallthrough chains
// case bodies.
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	head := b.cur
	after := b.newBlock("switch.after")
	savedBreak := b.breakTo
	b.breakTo = after
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = &labelTargets{breakTo: after}
		b.pendingLabel = ""
	}

	var caseBodies []*Block
	hasDefault := false
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		blk := b.newBlock("case")
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, blk)
		caseBodies = append(caseBodies, blk)
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		b.cur = caseBodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		falls := false
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = true
				continue
			}
			b.stmt(s)
		}
		if falls && i+1 < len(caseBodies) {
			b.jump(caseBodies[i+1])
		} else {
			b.jump(after)
		}
	}
	b.breakTo = savedBreak
	b.cur = after
}

func (b *builder) gotoTarget(name string) (*Block, bool) {
	t, ok := b.labelBlocks[name]
	return t, ok
}

// patchGotos wires forward gotos to their (later-seen) labels; a goto to a
// label that never appears (impossible in type-checked code) falls to Exit.
func (b *builder) patchGotos() {
	for name, srcs := range b.gotos {
		target, ok := b.labelBlocks[name]
		if !ok {
			target = b.g.Exit
		}
		for _, src := range srcs {
			b.edge(src, target)
		}
	}
}

// isTerminalCall reports whether the expression is a call that never
// returns: the panic builtin, os.Exit, or runtime.Goexit. This is a
// syntactic check — the cfg package has no type information — but the three
// names are unambiguous in practice and analyzers treat PanicExit paths
// leniently anyway.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			full := pkg.Name + "." + fun.Sel.Name
			return full == "os.Exit" || full == "runtime.Goexit"
		}
	}
	return false
}

// String renders the graph for debugging: one line per block with its
// successor indices.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%s ->", b)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		fmt.Fprintf(&sb, " (%d nodes)\n", len(b.Nodes))
	}
	return sb.String()
}
