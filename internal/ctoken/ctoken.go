// Package ctoken implements a C/C++ lexer tailored to patch analysis. It
// produces classified tokens (keywords, identifiers, literals, operator
// families, memory operators, function calls) from individual patch lines or
// whole files, and supports the token abstraction used by PatchDB's
// Levenshtein features and RNN input (identifiers -> VAR/FUNC, literals ->
// NUM/STR).
package ctoken

import "unicode"

// Kind classifies a token.
type Kind int

const (
	// Keyword is a reserved C/C++ word (if, for, return, int, ...).
	Keyword Kind = iota + 1
	// Identifier is a name that is not a keyword.
	Identifier
	// Number is an integer or floating literal.
	Number
	// String is a string or character literal.
	String
	// ArithmeticOp is one of + - * / % ++ --.
	ArithmeticOp
	// RelationalOp is one of == != < > <= >=.
	RelationalOp
	// LogicalOp is one of && || !.
	LogicalOp
	// BitwiseOp is one of & | ^ ~ << >>.
	BitwiseOp
	// AssignOp is = and compound assignments (+=, -=, <<=, ...).
	AssignOp
	// Punct is any other punctuation: parens, braces, commas, semicolons,
	// member access, etc.
	Punct
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case Keyword:
		return "kw"
	case Identifier:
		return "id"
	case Number:
		return "num"
	case String:
		return "str"
	case ArithmeticOp:
		return "arith"
	case RelationalOp:
		return "rel"
	case LogicalOp:
		return "logic"
	case BitwiseOp:
		return "bit"
	case AssignOp:
		return "assign"
	case Punct:
		return "punct"
	default:
		return "?"
	}
}

// Token is a lexed token with its source position (line is 1-based when
// lexing multi-line input, column is a byte offset).
type Token struct {
	Kind   Kind
	Text   string
	Line   int
	Col    int
	Offset int // byte offset of the token start in the lexed source
	// Call is true for an Identifier immediately followed by '('.
	Call bool
}

var keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true, "const": true,
	"continue": true, "default": true, "do": true, "double": true, "else": true,
	"enum": true, "extern": true, "float": true, "for": true, "goto": true,
	"if": true, "inline": true, "int": true, "long": true, "register": true,
	"restrict": true, "return": true, "short": true, "signed": true,
	"sizeof": true, "static": true, "struct": true, "switch": true,
	"typedef": true, "union": true, "unsigned": true, "void": true,
	"volatile": true, "while": true, "bool": true, "true": true, "false": true,
	"class": true, "namespace": true, "new": true, "delete": true,
	"template": true, "typename": true, "nullptr": true, "NULL": true,
}

// memoryOperators are the functions/operators the paper counts as "memory
// operators" (allocation, deallocation, copying, and sizing primitives).
var memoryOperators = map[string]bool{
	"malloc": true, "calloc": true, "realloc": true, "free": true,
	"memcpy": true, "memmove": true, "memset": true, "memcmp": true,
	"strcpy": true, "strncpy": true, "strlcpy": true, "strcat": true,
	"strncat": true, "strdup": true, "strndup": true, "alloca": true,
	"kmalloc": true, "kzalloc": true, "kfree": true, "vmalloc": true,
	"vfree": true, "new": true, "delete": true, "sizeof": true,
	"mmap": true, "munmap": true, "brk": true, "sbrk": true,
}

// loopKeywords start loop statements.
var loopKeywords = map[string]bool{"for": true, "while": true, "do": true}

// IsMemoryOperator reports whether tok denotes a memory operator per the
// paper's feature definition (features 39-42).
func IsMemoryOperator(tok Token) bool {
	switch tok.Kind {
	case Identifier, Keyword:
		return memoryOperators[tok.Text]
	}
	return false
}

// IsLoopKeyword reports whether tok begins a loop statement.
func IsLoopKeyword(tok Token) bool {
	return tok.Kind == Keyword && loopKeywords[tok.Text]
}

// IsIfKeyword reports whether tok is the `if` keyword.
func IsIfKeyword(tok Token) bool { return tok.Kind == Keyword && tok.Text == "if" }

// IsFunctionCall reports whether tok is an identifier used as a call (and
// not a keyword such as if/while/sizeof).
func IsFunctionCall(tok Token) bool { return tok.Kind == Identifier && tok.Call }

// Lex tokenizes source text. Line numbers start at startLine. Comments and
// preprocessor directives are skipped (a directive consumes its whole line);
// the lexer never fails: unknown bytes become Punct tokens.
func Lex(src string, startLine int) []Token {
	// C source averages 3.5-4 bytes per token, so len/3 rarely regrows.
	toks := LexAppend(make([]Token, 0, len(src)/3+1), src, startLine)
	if len(toks) == 0 {
		return nil
	}
	return toks
}

// LexAppend appends the tokens of src to toks and returns the extended
// slice, as Lex does into a fresh one. A caller lexing many lines can pass
// the previous result truncated to [:0] and allocate nothing once the
// buffer has grown. Token texts slice src.
func LexAppend(toks []Token, src string, startLine int) []Token {
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
		case identStart[c]:
			start := i
			for i < n && identPart[src[i]] {
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
			for i < n && (identPart[src[i]] || src[i] == '.' ||
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
			text, kind := lexOperator(src[i:])
			start := i
			i += len(text)
			toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: col, Offset: start})
		}
	}
	return toks
}

// LexLine tokenizes a single patch line (no leading diff marker).
func LexLine(line string) []Token { return Lex(line, 1) }

// identStart and identPart classify a byte as the first or a later byte of
// an identifier. A byte >= 0x80 counts as a letter when its Latin-1 code
// point is one (unicode.IsLetter(rune(c))), so a UTF-8 lead or continuation
// byte such as 0xC3 or 0xB5 lexes into the identifier around it.
var identStart, identPart [256]bool

func init() {
	for c := range 256 {
		letter := c == '_' || unicode.IsLetter(rune(c))
		identStart[c] = letter
		identPart[c] = letter || (c >= '0' && c <= '9')
	}
}

// lexOperator returns the longest operator s starts with and its kind, or
// the first byte as Punct when s starts with no operator. It dispatches on
// the first byte and then looks at most two bytes further (maximal munch):
// the C operators are `<<=` and `>>=` plus 1- and 2-byte ones. `->` and
// `::` are Punct, as is every byte that starts no operator.
func lexOperator(s string) (string, Kind) {
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	switch c := s[0]; c {
	case '<', '>':
		switch {
		case c1 == c && c2 == '=':
			return s[:3], AssignOp
		case c1 == c:
			return s[:2], BitwiseOp
		case c1 == '=':
			return s[:2], RelationalOp
		}
		return s[:1], RelationalOp
	case '=', '!':
		if c1 == '=' {
			return s[:2], RelationalOp
		}
		if c == '=' {
			return s[:1], AssignOp
		}
		return s[:1], LogicalOp
	case '&', '|':
		switch c1 {
		case c:
			return s[:2], LogicalOp
		case '=':
			return s[:2], AssignOp
		}
		return s[:1], BitwiseOp
	case '+', '-':
		switch {
		case c1 == c:
			return s[:2], ArithmeticOp
		case c1 == '=':
			return s[:2], AssignOp
		case c == '-' && c1 == '>':
			return s[:2], Punct
		}
		return s[:1], ArithmeticOp
	case '*', '/', '%', '^':
		if c1 == '=' {
			return s[:2], AssignOp
		}
		if c == '^' {
			return s[:1], BitwiseOp
		}
		return s[:1], ArithmeticOp
	case '~':
		return s[:1], BitwiseOp
	case ':':
		if c1 == ':' {
			return s[:2], Punct
		}
	}
	return s[:1], Punct
}

// Abstract maps a token stream onto the abstracted alphabet used by the
// paper's "after token abstraction" features and the RNN input: identifiers
// become FUNC (when called) or VAR, numeric literals NUM, string literals
// STR; keywords and operators keep their text.
func Abstract(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = AbstractOne(t)
	}
	return out
}

// AbstractOne abstracts a single token.
func AbstractOne(t Token) string {
	switch t.Kind {
	case Identifier:
		if t.Call {
			return "FUNC"
		}
		return "VAR"
	case Number:
		return "NUM"
	case String:
		return "STR"
	default:
		return t.Text
	}
}
