package cfg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"patchdb/internal/analysis/cfg"
)

// build parses a function body and returns its graph.
func build(t *testing.T, body string) *cfg.Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return cfg.New(f.Decls[0].(*ast.FuncDecl).Body)
}

// reachable reports whether blk is reachable from the entry.
func reachable(g *cfg.Graph, blk *cfg.Block) bool {
	seen := make(map[*cfg.Block]bool)
	var walk func(*cfg.Block)
	walk = func(b *cfg.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen[blk]
}

// findBlock returns the first block (in index order) satisfying pred.
func findBlock(g *cfg.Graph, pred func(*cfg.Block) bool) *cfg.Block {
	for _, b := range g.Blocks {
		if pred(b) {
			return b
		}
	}
	return nil
}

func TestLinearBodyReachesExit(t *testing.T) {
	g := build(t, "x := 1\n_ = x")
	if !reachable(g, g.Exit) {
		t.Errorf("exit not reachable:\n%s", g)
	}
	if reachable(g, g.PanicExit) {
		t.Errorf("panic exit reachable without a panic:\n%s", g)
	}
}

func TestIfElseBranches(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n\tx = 2\n} else {\n\tx = 3\n}\n_ = x")
	cond := findBlock(g, func(b *cfg.Block) bool { return b.Cond != nil })
	if cond == nil {
		t.Fatalf("no conditional block:\n%s", g)
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("cond block has %d succs, want 2 (true/false):\n%s", len(cond.Succs), g)
	}
	if !reachable(g, g.Exit) {
		t.Errorf("exit not reachable:\n%s", g)
	}
}

func TestReturnEdgesToExit(t *testing.T) {
	g := build(t, "if true {\n\treturn\n}\nreturn")
	// Both returns must flow to Exit and nothing else may.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
					t.Errorf("return block %s does not edge to exit:\n%s", b, g)
				}
			}
		}
	}
}

func TestPanicEdgesToPanicExit(t *testing.T) {
	g := build(t, "panic(\"boom\")")
	if !reachable(g, g.PanicExit) {
		t.Errorf("panic exit not reachable:\n%s", g)
	}
	if reachable(g, g.Exit) {
		t.Errorf("normal exit reachable past an unconditional panic:\n%s", g)
	}
}

func TestOsExitIsTerminal(t *testing.T) {
	g := build(t, "os.Exit(1)")
	if !reachable(g, g.PanicExit) {
		t.Errorf("os.Exit does not reach panic exit:\n%s", g)
	}
	if reachable(g, g.Exit) {
		t.Errorf("normal exit reachable past os.Exit:\n%s", g)
	}
}

func TestDeadCodeAfterReturn(t *testing.T) {
	g := build(t, "return\nx := 1\n_ = x")
	dead := findBlock(g, func(b *cfg.Block) bool {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				return true
			}
		}
		return false
	})
	if dead == nil {
		t.Fatalf("dead statements dropped from the graph:\n%s", g)
	}
	if reachable(g, dead) {
		t.Errorf("statements after return are reachable:\n%s", g)
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := build(t, "for i := 0; i < 10; i++ {\n\t_ = i\n}")
	// Some block must loop back to an earlier block (the head).
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != g.Exit && s != g.PanicExit {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Errorf("for loop has no back edge:\n%s", g)
	}
	if !reachable(g, g.Exit) {
		t.Errorf("exit not reachable (cond loop must be exitable):\n%s", g)
	}
}

func TestInfiniteLoopWithBreak(t *testing.T) {
	g := build(t, "for {\n\tif true {\n\t\tbreak\n\t}\n}")
	if !reachable(g, g.Exit) {
		t.Errorf("break does not escape the loop:\n%s", g)
	}
	g = build(t, "for {\n\t_ = 1\n}")
	if reachable(g, g.Exit) {
		t.Errorf("exit reachable from a breakless infinite loop:\n%s", g)
	}
}

func TestRangeHead(t *testing.T) {
	g := build(t, "ch := make(chan int)\nfor v := range ch {\n\t_ = v\n}")
	head := findBlock(g, func(b *cfg.Block) bool { return b.Range != nil })
	if head == nil {
		t.Fatalf("no range head block:\n%s", g)
	}
	if len(head.Succs) != 2 {
		t.Errorf("range head has %d succs, want 2 (body/after):\n%s", len(head.Succs), g)
	}
	if !reachable(g, g.Exit) {
		t.Errorf("exit not reachable past a range loop:\n%s", g)
	}
}

func TestSelectDispatch(t *testing.T) {
	g := build(t, "a := make(chan int)\nb := make(chan int)\nselect {\ncase <-a:\ncase <-b:\n}")
	sel := findBlock(g, func(b *cfg.Block) bool { return b.Select != nil })
	if sel == nil {
		t.Fatalf("no select dispatch block:\n%s", g)
	}
	if len(sel.Succs) != 2 {
		t.Errorf("select dispatch has %d succs, want one per clause (2):\n%s", len(sel.Succs), g)
	}
}

func TestEmptySelectBlocksForever(t *testing.T) {
	g := build(t, "select {}\n")
	sel := findBlock(g, func(b *cfg.Block) bool { return b.Select != nil })
	if sel == nil {
		t.Fatalf("no select dispatch block:\n%s", g)
	}
	if len(sel.Succs) != 0 {
		t.Errorf("empty select has successors:\n%s", g)
	}
	if reachable(g, g.Exit) {
		t.Errorf("exit reachable past select{}:\n%s", g)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := build(t, "switch x := 1; x {\ncase 1:\n\tfallthrough\ncase 2:\n\t_ = x\ndefault:\n}")
	if !reachable(g, g.Exit) {
		t.Fatalf("exit not reachable:\n%s", g)
	}
	// The fallthrough case must edge into the next case body: the block
	// holding `_ = x` then has two predecessors — the switch dispatch and
	// the falling-through case — where without fallthrough it has one.
	target := findBlock(g, func(b *cfg.Block) bool {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				return true
			}
		}
		return false
	})
	if target == nil {
		t.Fatalf("no case-2 body block:\n%s", g)
	}
	preds := 0
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == target {
				preds++
			}
		}
	}
	if preds != 2 {
		t.Errorf("fallthrough target has %d predecessors, want 2 (dispatch + fallthrough):\n%s", preds, g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, "outer:\nfor {\n\tfor {\n\t\tbreak outer\n\t}\n}")
	if !reachable(g, g.Exit) {
		t.Errorf("labeled break does not escape both loops:\n%s", g)
	}
}

func TestLabeledContinueStaysInLoop(t *testing.T) {
	g := build(t, "outer:\nfor {\n\tfor {\n\t\tcontinue outer\n\t}\n}")
	if reachable(g, g.Exit) {
		t.Errorf("continue to an infinite outer loop must not reach exit:\n%s", g)
	}
}

func TestGotoForward(t *testing.T) {
	g := build(t, "goto done\n_ = 1\ndone:\n_ = 2")
	// The skipped statement is dead; the label target is reachable.
	if !reachable(g, g.Exit) {
		t.Errorf("goto target does not flow to exit:\n%s", g)
	}
	dead := findBlock(g, func(b *cfg.Block) bool {
		return len(b.Nodes) == 1 && !reachable(g, b)
	})
	if dead == nil {
		t.Errorf("statement jumped over by goto is not dead:\n%s", g)
	}
}

func TestDefersCollectedInOrder(t *testing.T) {
	g := build(t, "defer one()\nif true {\n\tdefer two()\n}\ndefer three()")
	if len(g.Defers) != 3 {
		t.Fatalf("got %d defers, want 3:\n%s", len(g.Defers), g)
	}
	for i := 1; i < len(g.Defers); i++ {
		if g.Defers[i].Pos <= g.Defers[i-1].Pos {
			t.Errorf("defers out of registration order")
		}
	}
	names := []string{"one", "two", "three"}
	for i, d := range g.Defers {
		id, ok := d.Call.Fun.(*ast.Ident)
		if !ok || id.Name != names[i] {
			t.Errorf("defer %d: got %v, want call to %s", i, d.Call.Fun, names[i])
		}
	}
}

func TestNilBody(t *testing.T) {
	g := cfg.New(nil)
	if !reachable(g, g.Exit) {
		t.Errorf("nil body must fall through to exit:\n%s", g)
	}
}
