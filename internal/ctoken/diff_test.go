package ctoken

import (
	"testing"

	"patchdb/internal/corpus"
)

// checkSameAsRef fails when LexAppend and the reference lexer disagree on
// any token of src, kind and position included.
func checkSameAsRef(t *testing.T, src string) {
	t.Helper()
	got := LexAppend(nil, src, 1)
	want := refLexAppend(nil, src, 1)
	if sameTokens(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("Lex(%q) token %d = %+v, reference %+v", src, i, got[i], want[i])
		}
	}
	t.Fatalf("Lex(%q) gave %d tokens, reference %d", src, len(got), len(want))
}

// opBytes are the bytes an operator can start or continue with, plus a few
// that end one: a letter, a digit, a blank, a paren and a dot.
const opBytes = "<>=!&|+-*/%^~:a0 (."

// TestLexMatchesReference lexes every single byte, every byte pair, every
// 3-byte string over the operator bytes, each operator and its prefixes
// inside an expression, and generated C files with both lexers.
func TestLexMatchesReference(t *testing.T) {
	for c := range 256 {
		checkSameAsRef(t, string([]byte{byte(c)}))
		for d := range 256 {
			checkSameAsRef(t, string([]byte{byte(c), byte(d)}))
		}
	}
	for i := range len(opBytes) {
		for j := range len(opBytes) {
			for k := range len(opBytes) {
				checkSameAsRef(t, string([]byte{opBytes[i], opBytes[j], opBytes[k]}))
			}
		}
	}
	for _, op := range refOperators {
		for n := 1; n <= len(op.text); n++ {
			checkSameAsRef(t, "a"+op.text[:n]+"b")
			checkSameAsRef(t, "x "+op.text[:n]+" 1;")
		}
	}
	// Latin-1 letters lex into identifiers, other high bytes into Punct.
	for _, src := range []string{"\xb5x", "a\xc0b", "\xd7", "x\xf7y", "\xaa1", "\xff\xfe"} {
		checkSameAsRef(t, src)
	}
	g := corpus.NewGenerator(corpus.Config{Seed: 3})
	size := 0
	for _, lc := range g.GenerateNVD(4) {
		for _, files := range []map[string]string{lc.Commit.Before, lc.Commit.After} {
			for _, text := range files {
				checkSameAsRef(t, text)
				size += len(text)
			}
		}
	}
	if size < 4096 {
		t.Fatalf("generated files hold %d bytes, want a few kB", size)
	}
}
