package ctoken

import (
	"reflect"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasic(t *testing.T) {
	toks := LexLine("if (len < 0 || len > 4096)")
	want := []struct {
		kind Kind
		text string
	}{
		{Keyword, "if"}, {Punct, "("}, {Identifier, "len"}, {RelationalOp, "<"},
		{Number, "0"}, {LogicalOp, "||"}, {Identifier, "len"}, {RelationalOp, ">"},
		{Number, "4096"}, {Punct, ")"},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %d, want %d: %+v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("tok[%d] = %v %q, want %v %q", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestOperatorClassification(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"+", ArithmeticOp}, {"-", ArithmeticOp}, {"*", ArithmeticOp},
		{"/", ArithmeticOp}, {"%", ArithmeticOp}, {"++", ArithmeticOp}, {"--", ArithmeticOp},
		{"==", RelationalOp}, {"!=", RelationalOp}, {"<", RelationalOp},
		{">", RelationalOp}, {"<=", RelationalOp}, {">=", RelationalOp},
		{"&&", LogicalOp}, {"||", LogicalOp}, {"!", LogicalOp},
		{"&", BitwiseOp}, {"|", BitwiseOp}, {"^", BitwiseOp}, {"~", BitwiseOp},
		{"<<", BitwiseOp}, {">>", BitwiseOp},
		{"=", AssignOp}, {"+=", AssignOp}, {"<<=", AssignOp}, {">>=", AssignOp},
		{"->", Punct}, {"::", Punct}, {";", Punct},
	}
	for _, tc := range cases {
		toks := LexLine("a " + tc.src + " b")
		if len(toks) < 2 {
			t.Fatalf("lex(%q): %d tokens", tc.src, len(toks))
		}
		if toks[1].Kind != tc.kind {
			t.Errorf("op %q classified %v, want %v", tc.src, toks[1].Kind, tc.kind)
		}
		if toks[1].Text != tc.src {
			t.Errorf("op %q lexed as %q (maximal munch broken)", tc.src, toks[1].Text)
		}
	}
}

func TestCallDetection(t *testing.T) {
	toks := LexLine("ret = helper(x) + other (y) - notcall;")
	var calls []string
	for _, tok := range toks {
		if IsFunctionCall(tok) {
			calls = append(calls, tok.Text)
		}
	}
	if !reflect.DeepEqual(calls, []string{"helper", "other"}) {
		t.Errorf("calls = %v", calls)
	}
}

func TestKeywordsNotCalls(t *testing.T) {
	toks := LexLine("if (x) while (y) sizeof(z)")
	for _, tok := range toks {
		if IsFunctionCall(tok) {
			t.Errorf("keyword %q detected as call", tok.Text)
		}
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := "int a; // trailing comment with if (x)\n/* block\n if (y) */ int b;"
	toks := Lex(src, 1)
	for _, tok := range toks {
		if IsIfKeyword(tok) {
			t.Errorf("if inside comment lexed: %+v", tok)
		}
	}
	// b must be on line 3 (block comment spans two lines).
	last := toks[len(toks)-2]
	if last.Text != "b" || last.Line != 3 {
		t.Errorf("b at line %d, want 3 (%+v)", last.Line, last)
	}
}

func TestPreprocessorSkipped(t *testing.T) {
	src := "#include <string.h>\n#define MAX 10\nint x;"
	toks := Lex(src, 1)
	if len(toks) != 3 {
		t.Fatalf("tokens = %+v", toks)
	}
	if toks[0].Text != "int" || toks[0].Line != 3 {
		t.Errorf("first token %+v", toks[0])
	}
}

func TestStringLiterals(t *testing.T) {
	toks := LexLine(`printf("hello %d \" quoted", x);`)
	var strs []string
	for _, tok := range toks {
		if tok.Kind == String {
			strs = append(strs, tok.Text)
		}
	}
	if len(strs) != 1 || strs[0] != `"hello %d \" quoted"` {
		t.Errorf("strings = %q", strs)
	}
}

func TestCharLiteral(t *testing.T) {
	toks := LexLine(`c = '\n';`)
	found := false
	for _, tok := range toks {
		if tok.Kind == String && tok.Text == `'\n'` {
			found = true
		}
	}
	if !found {
		t.Errorf("char literal not lexed: %+v", toks)
	}
}

func TestNumbers(t *testing.T) {
	for _, src := range []string{"42", "0xff", "3.14", "1e-5", "077", "10u", "0x7fUL"} {
		toks := LexLine("x = " + src + ";")
		if len(toks) != 4 || toks[2].Kind != Number || toks[2].Text != src {
			t.Errorf("number %q lexed as %+v", src, toks)
		}
	}
}

func TestMemoryOperators(t *testing.T) {
	toks := LexLine("p = malloc(n); memcpy(p, q, n); free(p); s = sizeof(x); other(p);")
	var mems []string
	for _, tok := range toks {
		if IsMemoryOperator(tok) {
			mems = append(mems, tok.Text)
		}
	}
	if !reflect.DeepEqual(mems, []string{"malloc", "memcpy", "free", "sizeof"}) {
		t.Errorf("memory operators = %v", mems)
	}
}

func TestLoopAndIfKeywords(t *testing.T) {
	toks := LexLine("for (;;) while (1) do if (x)")
	var loops, ifs int
	for _, tok := range toks {
		if IsLoopKeyword(tok) {
			loops++
		}
		if IsIfKeyword(tok) {
			ifs++
		}
	}
	if loops != 3 || ifs != 1 {
		t.Errorf("loops=%d ifs=%d", loops, ifs)
	}
}

func TestAbstract(t *testing.T) {
	toks := LexLine(`ret = helper(buf, 42, "str");`)
	got := Abstract(toks)
	want := []string{"VAR", "=", "FUNC", "(", "VAR", ",", "NUM", ",", "STR", ")", ";"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Abstract = %v, want %v", got, want)
	}
}

func TestAbstractKeepsKeywordsAndOps(t *testing.T) {
	got := Abstract(LexLine("if (a && b) return;"))
	want := []string{"if", "(", "VAR", "&&", "VAR", ")", "return", ";"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Abstract = %v, want %v", got, want)
	}
}

func TestOffsetsAndColumns(t *testing.T) {
	src := "int x;\n  y = 2;"
	toks := Lex(src, 1)
	for _, tok := range toks {
		if src[tok.Offset:tok.Offset+len(tok.Text)] != tok.Text {
			t.Errorf("offset of %q wrong: %d", tok.Text, tok.Offset)
		}
	}
	// y is on line 2, col 2.
	var y Token
	for _, tok := range toks {
		if tok.Text == "y" {
			y = tok
		}
	}
	if y.Line != 2 || y.Col != 2 {
		t.Errorf("y at line %d col %d", y.Line, y.Col)
	}
}

func TestLexNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_ = Lex(s, 1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLexReconstruction(t *testing.T) {
	// Every token's text must appear at its offset (property over random C-ish
	// inputs).
	srcs := []string{
		"static int f(struct s *p, char *b, int n)\n{\n\treturn p->x + b[n];\n}\n",
		"x <<= 2; y >>= 1; z ^= m & 0xff;",
		"if (!a || (b && c)) goto out;",
		"unterminated \"string\n next;",
		"/* unterminated comment",
	}
	for _, src := range srcs {
		for _, tok := range Lex(src, 1) {
			end := tok.Offset + len(tok.Text)
			if end > len(src) || src[tok.Offset:end] != tok.Text {
				t.Errorf("token %q not at offset %d in %q", tok.Text, tok.Offset, src)
			}
		}
	}
}

// TestIsKeyword checks which words the lexer tokenizes as keywords.
func TestIsKeyword(t *testing.T) {
	isKeyword := func(s string) bool {
		toks := LexLine(s)
		return len(toks) == 1 && toks[0].Kind == Keyword
	}
	for _, kw := range []string{"if", "while", "return", "struct", "sizeof", "nullptr"} {
		if !isKeyword(kw) {
			t.Errorf("%q not lexed as a keyword", kw)
		}
	}
	for _, id := range []string{"iff", "Return", "len", "main"} {
		if isKeyword(id) {
			t.Errorf("%q lexed as a keyword", id)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Keyword: "kw", Identifier: "id", Number: "num", String: "str",
		ArithmeticOp: "arith", RelationalOp: "rel", LogicalOp: "logic",
		BitwiseOp: "bit", AssignOp: "assign", Punct: "punct", Kind(99): "?",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestLexAppendMatchesLex(t *testing.T) {
	srcs := []string{
		"",
		"   ",
		"int x = 42;",
		"if (p->len >= sizeof(buf)) return -EINVAL;",
		"for (i = 0; i < n; i++) {\n\tmemcpy(dst + i, \"s\\\"q\", 1); /* c */\n}\n",
		"#define MAX(a, b) \\\n ((a) > (b))\nx <<= 2; // tail",
		"'\\'' 1.5e-3 0x7f ~a ^ b",
	}
	for _, src := range srcs {
		checkLexAppend(t, src, Lex(src, 1))
	}
}
