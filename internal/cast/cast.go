// Package cast implements a tolerant recursive-descent parser for the C
// subset used by the corpus, producing an AST with line- and byte-accurate
// spans. PatchDB's oversampler uses it the way the paper uses LLVM AST
// dumps: to locate the `if` statements a patch touches (the `IfStmt
// <line:N, line:N>` information) so control-flow variants can be applied.
package cast

import (
	"fmt"
	"sync"

	"patchdb/internal/ctoken"
)

// Node is any AST node with a source span.
type Node interface {
	// Span returns the 1-based first and last source line of the node.
	Span() (startLine, endLine int)
}

// span is the common position bookkeeping embedded in every node.
type span struct {
	StartLine int
	EndLine   int
	StartOff  int // byte offset of the first token
	EndOff    int // byte offset just past the last token
}

func (s span) Span() (int, int) { return s.StartLine, s.EndLine }

// File is a parsed translation unit.
type File struct {
	span
	Funcs []*FuncDef
	// TopLevel holds non-function top-level statements (globals, typedefs).
	TopLevel []Stmt
}

// FuncDef is a function definition with a brace-delimited body.
type FuncDef struct {
	span
	Name string
	Body *Block
}

// Stmt is implemented by every statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a `{ ... }` statement list.
type Block struct {
	span
	Stmts []Stmt
}

// IfStmt is an if statement, the target of the oversampler.
type IfStmt struct {
	span
	// KwOffset is the byte offset of the `if` keyword.
	KwOffset int
	// CondOpen and CondClose are byte offsets of the '(' and matching ')'.
	CondOpen  int
	CondClose int
	// CondText is the raw source text of the condition between the parens.
	CondText string
	Then     Stmt
	Else     Stmt // nil if absent
}

// LoopStmt is a for/while/do statement.
type LoopStmt struct {
	span
	Keyword string
	Body    Stmt
}

// ReturnStmt is a return statement.
type ReturnStmt struct{ span }

// DeclStmt is a declaration statement (heuristic: begins with a type
// keyword or struct/const and ends with ';').
type DeclStmt struct{ span }

// ExprStmt is any other single-semicolon statement.
type ExprStmt struct{ span }

// SwitchStmt is a switch statement (body treated as a block).
type SwitchStmt struct {
	span
	Body *Block
}

func (*Block) stmtNode()      {}
func (*IfStmt) stmtNode()     {}
func (*LoopStmt) stmtNode()   {}
func (*ReturnStmt) stmtNode() {}
func (*DeclStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()   {}
func (*SwitchStmt) stmtNode() {}

// SyntaxError reports an unrecoverable parse failure (the parser is
// tolerant, so these are rare: unbalanced braces/parens at EOF).
type SyntaxError struct {
	Line   int
	Reason string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("parse error at line %d: %s", e.Line, e.Reason)
}

type parser struct {
	src  string
	toks []ctoken.Token
	pos  int
}

// tokPool recycles the parser's token buffers: no node keeps a token, so
// the buffer is free again once Parse returns.
var tokPool = sync.Pool{New: func() any { return new([]ctoken.Token) }}

// Parse parses source text into a File. It is tolerant: constructs outside
// the supported subset are consumed as generic statements; it only fails on
// structurally unbalanced input.
func Parse(src string) (*File, error) {
	buf := tokPool.Get().(*[]ctoken.Token)
	p := &parser{src: src, toks: ctoken.LexAppend((*buf)[:0], src, 1)}
	defer func() {
		clear(p.toks) // keep no reference to src in the pool
		*buf = p.toks[:0]
		tokPool.Put(buf)
	}()
	f := &File{}
	for !p.eof() {
		if fn, ok := p.tryFuncDef(); ok {
			f.Funcs = append(f.Funcs, fn)
			continue
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		f.TopLevel = append(f.TopLevel, st)
	}
	if len(p.toks) > 0 {
		f.StartLine = p.toks[0].Line
		last := p.toks[len(p.toks)-1]
		f.EndLine = last.Line
		f.EndOff = last.Offset + len(last.Text)
	}
	return f, nil
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() ctoken.Token {
	if p.eof() {
		return ctoken.Token{}
	}
	return p.toks[p.pos]
}

func (p *parser) next() ctoken.Token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) at(text string) bool {
	return !p.eof() && p.toks[p.pos].Text == text
}

// tryFuncDef attempts to parse `type name(args) { ... }` starting at the
// current position. On failure it restores the position and returns false.
func (p *parser) tryFuncDef() (*FuncDef, bool) {
	save := p.pos
	start := p.peek()
	// Consume leading type/qualifier tokens and pointer stars until we reach
	// an identifier immediately followed by '(' — the function name.
	name := ""
	sawType := false
	for !p.eof() {
		t := p.peek()
		if (t.Kind == ctoken.Keyword && (isDeclKeyword(t.Text) || t.Text == "inline")) || t.Text == "*" {
			p.next()
			if t.Text != "*" {
				sawType = true
			}
			continue
		}
		if t.Kind == ctoken.Identifier {
			if t.Call {
				// `struct foo *bar(...)`: bar is the name.
				name = t.Text
				p.next()
				break
			}
			// Part of a typedef'd return type.
			p.next()
			sawType = true
			continue
		}
		p.pos = save
		return nil, false
	}
	if name == "" || !sawType || !p.at("(") {
		p.pos = save
		return nil, false
	}
	if !p.skipBalanced("(", ")") {
		p.pos = save
		return nil, false
	}
	if !p.at("{") {
		p.pos = save
		return nil, false
	}
	body, err := p.parseBlock()
	if err != nil {
		p.pos = save
		return nil, false
	}
	fn := &FuncDef{Name: name, Body: body}
	fn.StartLine = start.Line
	fn.StartOff = start.Offset
	fn.EndLine = body.EndLine
	fn.EndOff = body.EndOff
	return fn, true
}

func (p *parser) parseBlock() (*Block, error) {
	open := p.next() // consume '{'
	b := &Block{}
	b.StartLine = open.Line
	b.StartOff = open.Offset
	for !p.eof() && !p.at("}") {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, st)
	}
	if p.eof() {
		return nil, &SyntaxError{Line: open.Line, Reason: "unterminated block"}
	}
	closeTok := p.next()
	b.EndLine = closeTok.Line
	b.EndOff = closeTok.Offset + 1
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.Text == "{":
		return p.parseBlock()
	case ctoken.IsIfKeyword(t):
		return p.parseIf()
	case t.Kind == ctoken.Keyword && (t.Text == "for" || t.Text == "while"):
		return p.parseLoop(t.Text)
	case t.Kind == ctoken.Keyword && t.Text == "do":
		return p.parseDoWhile()
	case t.Kind == ctoken.Keyword && t.Text == "switch":
		return p.parseSwitch()
	case t.Kind == ctoken.Keyword && t.Text == "return":
		st := &ReturnStmt{}
		st.StartLine = t.Line
		st.StartOff = t.Offset
		end, err := p.consumeToSemicolon(t.Line)
		if err != nil {
			return nil, err
		}
		st.EndLine, st.EndOff = end.Line, end.Offset+1
		return st, nil
	case t.Kind == ctoken.Keyword && isDeclKeyword(t.Text):
		st := &DeclStmt{}
		st.StartLine = t.Line
		st.StartOff = t.Offset
		end, err := p.consumeToSemicolon(t.Line)
		if err != nil {
			return nil, err
		}
		st.EndLine, st.EndOff = end.Line, end.Offset+1
		return st, nil
	default:
		st := &ExprStmt{}
		st.StartLine = t.Line
		st.StartOff = t.Offset
		end, err := p.consumeToSemicolon(t.Line)
		if err != nil {
			return nil, err
		}
		st.EndLine, st.EndOff = end.Line, end.Offset+1
		return st, nil
	}
}

func isDeclKeyword(s string) bool {
	switch s {
	case "int", "char", "long", "short", "unsigned", "signed", "float",
		"double", "void", "bool", "const", "static", "struct", "union",
		"enum", "auto", "register", "volatile", "extern", "typedef":
		return true
	}
	return false
}

func (p *parser) parseIf() (Stmt, error) {
	kw := p.next() // `if`
	st := &IfStmt{KwOffset: kw.Offset}
	st.StartLine = kw.Line
	st.StartOff = kw.Offset
	if !p.at("(") {
		return nil, &SyntaxError{Line: kw.Line, Reason: "if without condition"}
	}
	openTok := p.peek()
	st.CondOpen = openTok.Offset
	closeIdx, ok := p.findBalanced("(", ")")
	if !ok {
		return nil, &SyntaxError{Line: kw.Line, Reason: "unbalanced if condition"}
	}
	closeTok := p.toks[closeIdx]
	st.CondClose = closeTok.Offset
	st.CondText = p.src[st.CondOpen+1 : st.CondClose]
	p.pos = closeIdx + 1
	thenStmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Then = thenStmt
	_, st.EndLine = thenStmt.Span()
	st.EndOff = endOff(thenStmt)
	if !p.eof() && p.peek().Kind == ctoken.Keyword && p.peek().Text == "else" {
		p.next()
		elseStmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = elseStmt
		_, st.EndLine = elseStmt.Span()
		st.EndOff = endOff(elseStmt)
	}
	return st, nil
}

func (p *parser) parseLoop(keyword string) (Stmt, error) {
	kw := p.next()
	st := &LoopStmt{Keyword: keyword}
	st.StartLine = kw.Line
	st.StartOff = kw.Offset
	if !p.at("(") {
		return nil, &SyntaxError{Line: kw.Line, Reason: keyword + " without header"}
	}
	if !p.skipBalanced("(", ")") {
		return nil, &SyntaxError{Line: kw.Line, Reason: "unbalanced " + keyword + " header"}
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	_, st.EndLine = body.Span()
	st.EndOff = endOff(body)
	return st, nil
}

func (p *parser) parseDoWhile() (Stmt, error) {
	kw := p.next() // `do`
	st := &LoopStmt{Keyword: "do"}
	st.StartLine = kw.Line
	st.StartOff = kw.Offset
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	// Consume `while (...) ;`
	if !p.eof() && p.peek().Text == "while" {
		p.next()
		if p.at("(") {
			p.skipBalanced("(", ")")
		}
		end, err := p.consumeToSemicolon(kw.Line)
		if err != nil {
			return nil, err
		}
		st.EndLine, st.EndOff = end.Line, end.Offset+1
		return st, nil
	}
	_, st.EndLine = body.Span()
	st.EndOff = endOff(body)
	return st, nil
}

func (p *parser) parseSwitch() (Stmt, error) {
	kw := p.next()
	st := &SwitchStmt{}
	st.StartLine = kw.Line
	st.StartOff = kw.Offset
	if p.at("(") {
		if !p.skipBalanced("(", ")") {
			return nil, &SyntaxError{Line: kw.Line, Reason: "unbalanced switch header"}
		}
	}
	if !p.at("{") {
		return nil, &SyntaxError{Line: kw.Line, Reason: "switch without body"}
	}
	// case/default labels are consumed as generic statements inside the block.
	body, err := p.parseSwitchBody()
	if err != nil {
		return nil, err
	}
	st.Body = body
	st.EndLine = body.EndLine
	st.EndOff = body.EndOff
	return st, nil
}

// parseSwitchBody consumes a brace-balanced region without interpreting
// labels, returning it as a Block with no inner statements beyond what
// parses cleanly.
func (p *parser) parseSwitchBody() (*Block, error) {
	open := p.next()
	b := &Block{}
	b.StartLine = open.Line
	b.StartOff = open.Offset
	depth := 1
	var last ctoken.Token = open
	for !p.eof() && depth > 0 {
		t := p.next()
		last = t
		switch t.Text {
		case "{":
			depth++
		case "}":
			depth--
		}
	}
	if depth != 0 {
		return nil, &SyntaxError{Line: open.Line, Reason: "unterminated switch body"}
	}
	b.EndLine = last.Line
	b.EndOff = last.Offset + 1
	return b, nil
}

// consumeToSemicolon advances past the next top-level ';', skipping over
// balanced parens/braces/brackets, and returns the semicolon token.
func (p *parser) consumeToSemicolon(startLine int) (ctoken.Token, error) {
	depth := 0
	for !p.eof() {
		t := p.next()
		switch t.Text {
		case "(", "{", "[":
			depth++
		case ")", "}", "]":
			depth--
		case ";":
			if depth <= 0 {
				return t, nil
			}
		}
	}
	return ctoken.Token{}, &SyntaxError{Line: startLine, Reason: "statement without terminating semicolon"}
}

// skipBalanced consumes from an opening delimiter through its match,
// returning false if unbalanced.
func (p *parser) skipBalanced(open, close string) bool {
	idx, ok := p.findBalanced(open, close)
	if !ok {
		return false
	}
	p.pos = idx + 1
	return true
}

// findBalanced returns the token index of the delimiter matching the opener
// at the current position, without consuming anything.
func (p *parser) findBalanced(open, close string) (int, bool) {
	if !p.at(open) {
		return 0, false
	}
	depth := 0
	for i := p.pos; i < len(p.toks); i++ {
		switch p.toks[i].Text {
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				return i, true
			}
		}
	}
	return 0, false
}

func endOff(st Stmt) int {
	switch s := st.(type) {
	case *Block:
		return s.EndOff
	case *IfStmt:
		return s.EndOff
	case *LoopStmt:
		return s.EndOff
	case *ReturnStmt:
		return s.EndOff
	case *DeclStmt:
		return s.EndOff
	case *ExprStmt:
		return s.EndOff
	case *SwitchStmt:
		return s.EndOff
	default:
		return 0
	}
}

// IfStmts returns every IfStmt in the file (all nesting levels, in source
// order).
func (f *File) IfStmts() []*IfStmt {
	var out []*IfStmt
	var walkStmt func(Stmt)
	walkStmt = func(st Stmt) {
		switch s := st.(type) {
		case *Block:
			for _, inner := range s.Stmts {
				walkStmt(inner)
			}
		case *IfStmt:
			out = append(out, s)
			if s.Then != nil {
				walkStmt(s.Then)
			}
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *LoopStmt:
			if s.Body != nil {
				walkStmt(s.Body)
			}
		}
	}
	for _, fn := range f.Funcs {
		walkStmt(fn.Body)
	}
	for _, st := range f.TopLevel {
		walkStmt(st)
	}
	return out
}

// IfStmtsInLines returns the if statements whose span overlaps the given
// 1-based inclusive line range — the "if statements involved with code
// changes in the patch" of the paper's Sec. III-C-2.
func (f *File) IfStmtsInLines(first, last int) []*IfStmt {
	var out []*IfStmt
	for _, s := range f.IfStmts() {
		lo, hi := s.Span()
		if lo <= last && hi >= first {
			out = append(out, s)
		}
	}
	return out
}
