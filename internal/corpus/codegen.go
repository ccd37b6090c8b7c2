// Code generation: synthesizes realistic C source files that the pattern
// editors (patterns.go, nonsec.go) can reliably mutate. Every generated
// function embeds the anchors the editors look for: parameter validation
// targets (pointer + length), a loop with array accesses, pointer
// dereferences, library/function calls, conditional statements, and memory
// operations.
package corpus

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

var (
	verbs = []string{
		"parse", "read", "write", "init", "update", "handle", "process",
		"validate", "compute", "alloc", "release", "send", "recv", "decode",
		"encode", "flush", "copy", "scan", "emit", "load", "store", "probe",
		"queue", "drain", "map", "bind", "resolve", "build", "walk", "merge",
	}
	nouns = []string{
		"buf", "pkt", "hdr", "frame", "msg", "req", "resp", "node", "entry",
		"chunk", "block", "page", "record", "field", "token", "stream",
		"segment", "table", "cache", "queue", "ring", "slot", "key", "attr",
		"opt", "param", "event", "state", "conf", "desc",
	}
	scalarNames = []string{
		"len", "size", "count", "idx", "offset", "pos", "num", "total",
		"width", "depth", "limit", "span", "nbytes", "avail",
	}
	structNames = []string{
		"ctx", "dev", "session", "conn", "parser", "codec", "handle",
		"client", "worker", "channel",
	}
	callees = []string{
		"transform", "lookup", "hash", "checksum", "normalize", "convert",
		"classify", "sanitize", "translate", "project", "reduce",
	}
	helperSuffixes = []string{
		"state", "flags", "entry", "limit", "quota", "index", "mode",
	}
)

// srcFile is a generated C source file held as lines so the pattern editors
// can do precise line-level edits.
type srcFile struct {
	path  string
	lines []string
	// fn holds the anchor metadata of the primary (editable) function.
	fn fnAnchors
}

// fnAnchors records where the interesting statements of the primary function
// live. Indices are 0-based into srcFile.lines and are only valid until the
// first edit; editors re-locate anchors by content when needed.
type fnAnchors struct {
	name       string
	sigLine    int // function signature line
	bodyStart  int // line of '{'
	bodyEnd    int // line of closing '}'
	ptrParam   string
	lenParam   string
	structVar  string
	arrayVar   string
	loopLine   int
	arrayLine  int // array write inside the loop
	derefLine  int // pointer dereference statement
	callLine   int // helper call statement
	ifLine     int // existing if statement
	memcpyLine int // memory operation
	returnLine int // final return
	retVar     string
	idxVar     string
	countVar   string
	tmpBuf     string
	calleeName string
}

// text joins the lines, each ending in a newline, into one allocation.
func (f *srcFile) text() string {
	if len(f.lines) == 0 {
		return "\n"
	}
	n := 0
	for _, l := range f.lines {
		n += len(l) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for _, l := range f.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// clone returns a deep copy so before/after versions do not alias.
func (f *srcFile) clone() *srcFile {
	out := &srcFile{path: f.path, fn: f.fn}
	out.lines = append([]string(nil), f.lines...)
	return out
}

// insert puts text at index i, shifting the rest down.
func (f *srcFile) insert(i int, text ...string) {
	if i < 0 {
		i = 0
	}
	if i > len(f.lines) {
		i = len(f.lines)
	}
	f.lines = slices.Insert(f.lines, i, text...)
}

// find returns the index of the first line at or after from satisfying pred,
// or -1.
func (f *srcFile) find(from int, pred func(string) bool) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < len(f.lines); i++ {
		if pred(f.lines[i]) {
			return i
		}
	}
	return -1
}

// findContains locates the first line containing substr at or after from.
func (f *srcFile) findContains(from int, substr string) int {
	return f.find(from, func(s string) bool { return strings.Contains(s, substr) })
}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

// ident builds a name like "parse_hdr" or "pkt_count".
func ident(rng *rand.Rand, a, b []string) string {
	return pick(rng, a) + "_" + pick(rng, b)
}

// genFile synthesizes a C file with a struct definition, a helper function,
// and a primary function rich in anchors. The id keeps paths unique per
// repository.
func genFile(rng *rand.Rand, id int) *srcFile {
	f := &srcFile{lines: make([]string, 0, 64)} // a generated file has fewer than 64 lines
	noun := pick(rng, nouns)
	structVar := pick(rng, structNames)
	fnName := ident(rng, verbs, nouns)
	helper := pick(rng, callees)
	helperField := pick(rng, helperSuffixes)
	f.path = fmt.Sprintf("src/%s_%s_%d.c", fnName, noun, id)
	f.fn = fnAnchors{
		name:       fnName,
		ptrParam:   noun,
		lenParam:   pick(rng, scalarNames),
		structVar:  structVar,
		retVar:     "ret",
		idxVar:     "i",
		countVar:   pick(rng, scalarNames),
		tmpBuf:     "tmp",
		calleeName: helper,
	}
	a := &f.fn
	for a.countVar == a.lenParam {
		a.countVar = pick(rng, scalarNames)
	}
	bufSize := 32 << rng.Intn(3) // 32/64/128
	mask := []string{"0xff", "0x7f", "0x3f", "0x1f"}[rng.Intn(4)]
	threshold := 4 + rng.Intn(60)

	add := func(line string) { f.lines = append(f.lines, line) }
	add("#include <string.h>")
	add("#include <stdlib.h>")
	if rng.Intn(2) == 0 {
		add("#include <stdio.h>")
	}
	add("")
	add(fmt.Sprintf("struct %s_state {", noun))
	add("\tint " + helperField + ";")
	add("\tint refs;")
	add(fmt.Sprintf("\tstruct %s_state *next;", noun))
	add("\tunsigned int flags;")
	add("};")
	add("")
	// Helper function (gives the file a second function and a call target).
	add(fmt.Sprintf("static int %s(int value, int scale)", helper))
	add("{")
	switch rng.Intn(3) {
	case 0:
		add(fmt.Sprintf("\treturn (value * scale) %% %d;", 7+rng.Intn(97)))
	case 1:
		add(fmt.Sprintf("\treturn (value ^ scale) & %s;", mask))
	default:
		add(fmt.Sprintf("\treturn value + scale * %d;", 1+rng.Intn(9)))
	}
	add("}")
	add("")
	// Primary function.
	a.sigLine = len(f.lines)
	add(fmt.Sprintf("static int %s(struct %s_state *%s, char *%s, int %s)",
		a.name, noun, a.structVar, a.ptrParam, a.lenParam))
	a.bodyStart = len(f.lines)
	add("{")
	add(fmt.Sprintf("\tint %s;", a.idxVar))
	add(fmt.Sprintf("\tint %s = 0;", a.retVar))
	a.derefLine = len(f.lines)
	add(fmt.Sprintf("\tint %s = %s->%s;", a.countVar, a.structVar, helperField))
	add(fmt.Sprintf("\tchar %s[%d];", a.tmpBuf, bufSize))
	if rng.Intn(2) == 0 {
		add(fmt.Sprintf("\tstruct %s_state *cursor = %s->next;", noun, a.structVar))
	}
	// Optional extra locals and prologue logic: structural diversity so
	// commits from the same class do not collapse onto one feature point.
	for k := rng.Intn(3); k > 0; k-- {
		name := pick(rng, scalarNames) + "2"
		switch rng.Intn(3) {
		case 0:
			add(fmt.Sprintf("\tint %s = %d;", name, rng.Intn(128)))
		case 1:
			add(fmt.Sprintf("\tunsigned int %s = %s->flags;", name, a.structVar))
		default:
			add(fmt.Sprintf("\tint %s = %s / %d;", name, a.lenParam, 1+rng.Intn(7)))
		}
	}
	if rng.Intn(3) == 0 {
		add(fmt.Sprintf("\tif (%s->refs == 0)", a.structVar))
		add(fmt.Sprintf("\t\t%s->refs = 1;", a.structVar))
	}
	if rng.Intn(4) == 0 {
		add(fmt.Sprintf("\twhile (%s > %d) {", a.countVar, 64+rng.Intn(192)))
		add(fmt.Sprintf("\t\t%s >>= 1;", a.countVar))
		add("\t}")
	}
	add("")
	a.loopLine = len(f.lines)
	add(fmt.Sprintf("\tfor (%s = 0; %s < %s; %s++) {", a.idxVar, a.idxVar, a.lenParam, a.idxVar))
	a.arrayLine = len(f.lines)
	a.arrayVar = a.ptrParam
	add(fmt.Sprintf("\t\t%s[%s] = %s(%s[%s], %s);", a.ptrParam, a.idxVar, helper, a.ptrParam, a.idxVar, a.countVar))
	add(fmt.Sprintf("\t\t%s += %s[%s] & %s;", a.retVar, a.ptrParam, a.idxVar, mask))
	if rng.Intn(3) == 0 {
		add(fmt.Sprintf("\t\tif (%s[%s] == 0)", a.ptrParam, a.idxVar))
		add("\t\t\tcontinue;")
	}
	add("\t}")
	add("")
	a.ifLine = len(f.lines)
	add(fmt.Sprintf("\tif (%s > %d) {", a.countVar, threshold))
	a.callLine = len(f.lines)
	add(fmt.Sprintf("\t\t%s = %s(%s, %d);", a.retVar, helper, a.retVar, 1+rng.Intn(15)))
	add(fmt.Sprintf("\t\t%s->flags |= %du;", a.structVar, 1<<rng.Intn(5)))
	add("\t}")
	add("")
	a.memcpyLine = len(f.lines)
	add(fmt.Sprintf("\tmemcpy(%s, %s, %s);", a.tmpBuf, a.ptrParam, a.lenParam))
	add(fmt.Sprintf("\t%s->refs++;", a.structVar))
	a.returnLine = len(f.lines)
	add(fmt.Sprintf("\treturn %s;", a.retVar))
	a.bodyEnd = len(f.lines)
	add("}")
	return f
}
