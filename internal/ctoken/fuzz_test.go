package ctoken

import (
	"reflect"
	"testing"
)

// FuzzLex asserts the lexer never panics, never loses position accuracy,
// always terminates with offsets that slice the input correctly, that
// LexAppend into a dirty buffer agrees with Lex, and that both give the
// tokens of the reference lexer (refLexAppend).
func FuzzLex(f *testing.F) {
	f.Add("int x = 42;")
	f.Add("if (a && b) { f(x); }")
	f.Add("\"unterminated")
	f.Add("/* unterminated")
	f.Add("#define \\\n continued")
	f.Add("'\\'")
	f.Add("")
	f.Add("p->n <<= 2; a::b != c >>= d || e &= ~f")
	f.Add("\xb5x = \xc0;")
	f.Fuzz(func(t *testing.T, src string) {
		toks := Lex(src, 1)
		checkLexAppend(t, src, toks)
		checkSameAsRef(t, src)
		prevEnd := 0
		for _, tok := range toks {
			end := tok.Offset + len(tok.Text)
			if tok.Offset < prevEnd || end > len(src) {
				t.Fatalf("token %q at %d overlaps or overflows (prev end %d, len %d)",
					tok.Text, tok.Offset, prevEnd, len(src))
			}
			if src[tok.Offset:end] != tok.Text {
				t.Fatalf("token text %q not at its offset", tok.Text)
			}
			if tok.Line < 1 {
				t.Fatalf("token line %d", tok.Line)
			}
			prevEnd = end
		}
		// Abstraction must be total.
		if got := Abstract(toks); len(got) != len(toks) {
			t.Fatalf("Abstract changed length")
		}
	})
}

// dirtyPrefix is what checkLexAppend leaves in front of the appended
// tokens; dirtyTail fills the spare capacity behind them.
var (
	dirtyPrefix = []Token{{Kind: Keyword, Text: "if", Line: 7, Col: 3, Offset: 9}, {Kind: Punct, Text: "(", Line: 7}}
	dirtyTail   = Token{Kind: String, Text: "\"stale\"", Line: 99, Col: 99, Offset: 99, Call: true}
)

// checkLexAppend asserts that LexAppend returns want (the tokens Lex gave
// for src) whether it appends to a reused buffer truncated to empty or to
// one holding earlier tokens, with stale tokens in the spare capacity.
func checkLexAppend(t *testing.T, src string, want []Token) {
	t.Helper()
	buf := make([]Token, len(dirtyPrefix)+len(src)+8)
	for i := range buf {
		buf[i] = dirtyTail
	}
	got := LexAppend(append(buf[:0], dirtyPrefix...), src, 1)
	if !reflect.DeepEqual(got[:len(dirtyPrefix)], dirtyPrefix) {
		t.Fatalf("LexAppend(%q) changed the tokens already in the buffer", src)
	}
	if !sameTokens(got[len(dirtyPrefix):], want) {
		t.Fatalf("LexAppend(%q) onto a non-empty buffer = %v, Lex = %v", src, got[len(dirtyPrefix):], want)
	}
	if got := LexAppend(got[:0], src, 1); !sameTokens(got, want) {
		t.Fatalf("LexAppend(%q) into a reused buffer = %v, Lex = %v", src, got, want)
	}
}

// sameTokens compares token lists, treating nil and empty as equal.
func sameTokens(a, b []Token) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
