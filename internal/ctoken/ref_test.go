package ctoken

import (
	"strings"
	"unicode"
)

// refLexAppend is the lexer as it was before operators were dispatched on
// their first byte and identifier bytes classified by table: it scans the
// whole operator table with strings.HasPrefix and asks package unicode about
// every identifier byte. The differential tests require LexAppend to give
// the same tokens as this reference on every input.
func refLexAppend(toks []Token, src string, startLine int) []Token {
	line := startLine
	i := 0
	lineStart := 0
	n := len(src)
	atLineStart := true

	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
			lineStart = i
			atLineStart = true
			continue
		case c == ' ' || c == '\t' || c == '\r':
			i++
			continue
		case c == '#' && atLineStart:
			// Preprocessor directive: skip to end of line (handling \ continuations).
			for i < n {
				if src[i] == '\\' && i+1 < n && src[i+1] == '\n' {
					i += 2
					line++
					lineStart = i
					continue
				}
				if src[i] == '\n' {
					break
				}
				i++
			}
			continue
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
			continue
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
					lineStart = i + 1
				}
				i++
			}
			i += 2
			if i > n {
				i = n
			}
			continue
		}
		atLineStart = false
		col := i - lineStart
		switch {
		case refIsIdentStart(c):
			start := i
			for i < n && refIsIdentPart(src[i]) {
				i++
			}
			text := src[start:i]
			kind := Identifier
			if keywords[text] {
				kind = Keyword
			}
			tok := Token{Kind: kind, Text: text, Line: line, Col: col, Offset: start}
			// Look ahead for '(' to mark calls.
			j := i
			for j < n && (src[j] == ' ' || src[j] == '\t') {
				j++
			}
			if kind == Identifier && j < n && src[j] == '(' {
				tok.Call = true
			}
			toks = append(toks, tok)
		case c >= '0' && c <= '9':
			start := i
			for i < n && (refIsIdentPart(src[i]) || src[i] == '.' ||
				((src[i] == '+' || src[i] == '-') && i > start && (src[i-1] == 'e' || src[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, Token{Kind: Number, Text: src[start:i], Line: line, Col: col, Offset: start})
		case c == '"' || c == '\'':
			quote := c
			start := i
			i++
			for i < n && src[i] != quote {
				if src[i] == '\\' && i+1 < n {
					i++
				}
				if src[i] == '\n' {
					break // unterminated literal: stop at end of line
				}
				i++
			}
			if i < n && src[i] == quote {
				i++
			}
			toks = append(toks, Token{Kind: String, Text: src[start:i], Line: line, Col: col, Offset: start})
		default:
			text, kind := refLexOperator(src[i:])
			start := i
			i += len(text)
			toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: col, Offset: start})
		}
	}
	return toks
}

func refIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func refIsIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || (c >= '0' && c <= '9')
}

// refOperators is the operator table, ordered longest-first so that a
// scan in order applies maximal munch.
var refOperators = []struct {
	text string
	kind Kind
}{
	{"<<=", AssignOp}, {">>=", AssignOp},
	{"==", RelationalOp}, {"!=", RelationalOp}, {"<=", RelationalOp}, {">=", RelationalOp},
	{"&&", LogicalOp}, {"||", LogicalOp},
	{"<<", BitwiseOp}, {">>", BitwiseOp},
	{"++", ArithmeticOp}, {"--", ArithmeticOp},
	{"+=", AssignOp}, {"-=", AssignOp}, {"*=", AssignOp}, {"/=", AssignOp},
	{"%=", AssignOp}, {"&=", AssignOp}, {"|=", AssignOp}, {"^=", AssignOp},
	{"->", Punct}, {"::", Punct},
	{"+", ArithmeticOp}, {"-", ArithmeticOp}, {"*", ArithmeticOp}, {"/", ArithmeticOp},
	{"%", ArithmeticOp},
	{"<", RelationalOp}, {">", RelationalOp},
	{"!", LogicalOp},
	{"&", BitwiseOp}, {"|", BitwiseOp}, {"^", BitwiseOp}, {"~", BitwiseOp},
	{"=", AssignOp},
}

func refLexOperator(s string) (string, Kind) {
	for _, op := range refOperators {
		if strings.HasPrefix(s, op.text) {
			return op.text, op.kind
		}
	}
	return s[:1], Punct
}
