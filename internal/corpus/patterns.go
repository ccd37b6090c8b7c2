// Security patch pattern editors: one per pattern class of Table V. Each
// editor takes a pristine generated file and produces the post-patch
// version, embedding the syntactic signature of its class (sanity checks add
// conditionals and relational operators, call fixes swap or add function
// calls, redesigns rewrite whole regions, ...).
package corpus

import (
	"math/rand"
	"strconv"
	"strings"
)

// Pattern identifies one of the 12 security patch pattern classes of
// Table V.
type Pattern int

const (
	// PatternBoundCheck adds or changes bound checks (Type 1).
	PatternBoundCheck Pattern = iota + 1
	// PatternNullCheck adds or changes NULL checks (Type 2).
	PatternNullCheck
	// PatternSanityCheck adds or changes other sanity checks (Type 3).
	PatternSanityCheck
	// PatternVarDef changes variable definitions (Type 4).
	PatternVarDef
	// PatternVarValue changes variable values (Type 5).
	PatternVarValue
	// PatternFuncDecl changes function declarations (Type 6).
	PatternFuncDecl
	// PatternFuncParam changes function parameters (Type 7).
	PatternFuncParam
	// PatternFuncCall adds or changes function calls (Type 8).
	PatternFuncCall
	// PatternJump adds or changes jump statements (Type 9).
	PatternJump
	// PatternMove moves statements without modification (Type 10).
	PatternMove
	// PatternRedesign adds or changes functions wholesale (Type 11).
	PatternRedesign
	// PatternOther is uncommon minor changes (Type 12).
	PatternOther
)

// NumPatterns is the number of security pattern classes.
const NumPatterns = 12

// String returns the Table V description of the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternBoundCheck:
		return "add or change bound checks"
	case PatternNullCheck:
		return "add or change null checks"
	case PatternSanityCheck:
		return "add or change other sanity checks"
	case PatternVarDef:
		return "change variable definitions"
	case PatternVarValue:
		return "change variable values"
	case PatternFuncDecl:
		return "change function declarations"
	case PatternFuncParam:
		return "change function parameters"
	case PatternFuncCall:
		return "add or change function calls"
	case PatternJump:
		return "add or change jump statements"
	case PatternMove:
		return "move statements without modification"
	case PatternRedesign:
		return "add or change functions (redesign)"
	case PatternOther:
		return "others"
	default:
		return "unknown"
	}
}

// guardBody returns a random statement used as the body of an inserted
// check. The SAME pool is shared by security and non-security editors:
// whether `if (len > 64) return -1;` fixes a vulnerability or merely tunes
// behaviour is decided by context, not syntax, exactly as in real commits.
func guardBody(a *fnAnchors, rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return "\t\treturn -1;"
	case 1:
		return "\t\treturn 0;"
	case 2:
		return "\t\t" + a.lenParam + " = 0;"
	case 3:
		return "\t\treturn " + a.retVar + ";"
	default:
		return "\t\t" + a.lenParam + " &= 0x" + strconv.FormatInt(0xff<<rng.Intn(3), 16) + ";"
	}
}

// guardCond returns a random if-condition from a pool shared by security
// and non-security editors. complexBias in [0,1] is the probability of
// drawing a multi-clause condition; security fixes lean complex (defensive
// conjunctions), functional tweaks lean simple, but both draw from the same
// pool so no single syntactic family is a perfect label.
func guardCond(a *fnAnchors, rng *rand.Rand, complexBias float64) string {
	if rng.Float64() < complexBias {
		switch rng.Intn(4) {
		case 0:
			return a.lenParam + " < 0 || " + a.lenParam + " > " + strconv.Itoa(512<<rng.Intn(4))
		case 1:
			return "!" + a.structVar + " || !" + a.ptrParam
		case 2:
			return a.structVar + "->refs > 0 && " + a.countVar + " != 0"
		default:
			return "(" + a.structVar + "->flags & 0x" + strconv.FormatInt(1<<(2+rng.Intn(4)), 16) + "u) != 0"
		}
	}
	switch rng.Intn(4) {
	case 0:
		return a.lenParam + " == 0"
	case 1:
		return a.lenParam + " > " + strconv.Itoa(64<<rng.Intn(4))
	case 2:
		return "!" + a.structVar
	default:
		return a.countVar + " < " + strconv.Itoa(1+rng.Intn(16))
	}
}

// applySecurityPattern returns the post-patch version of file f under the
// given pattern class. The input file is not modified.
func applySecurityPattern(f *srcFile, p Pattern, rng *rand.Rand) *srcFile {
	out := f.clone()
	a := &out.fn
	switch p {
	case PatternBoundCheck:
		applyBoundCheck(out, a, rng)
	case PatternNullCheck:
		applyNullCheck(out, a, rng)
	case PatternSanityCheck:
		applySanityCheck(out, a, rng)
	case PatternVarDef:
		applyVarDef(out, a, rng)
	case PatternVarValue:
		applyVarValue(out, a, rng)
	case PatternFuncDecl:
		applyFuncDecl(out, a)
	case PatternFuncParam:
		applyFuncParam(out, a, rng)
	case PatternFuncCall:
		applyFuncCall(out, a, rng)
	case PatternJump:
		applyJump(out, a, rng)
	case PatternMove:
		applyMove(out, a)
	case PatternRedesign:
		applyRedesign(out, a, rng)
	case PatternOther:
		applyOther(out, a, rng)
	}
	return out
}

func applyBoundCheck(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0:
		// Guard the memcpy destination against overflow.
		i := out.findContains(a.bodyStart, "memcpy(")
		if i < 0 {
			i = a.returnLine
		}
		out.insert(i,
			"\tif ("+a.lenParam+" > (int)sizeof("+a.tmpBuf+"))",
			guardBody(a, rng))
	case 1:
		// Reject suspicious lengths before the loop.
		out.insert(a.loopLine,
			"\tif ("+guardCond(a, rng, 0.6)+")",
			guardBody(a, rng))
	default:
		// Tighten an existing relational check (the CVE-2019-20912 shape:
		// strengthen the condition with an extra bound).
		i := out.findContains(a.bodyStart, "if (")
		if i >= 0 {
			old := out.lines[i]
			out.lines[i] = strings.Replace(old, ") {",
				" && "+a.idxVar+" > 0) {", 1)
		}
	}
}

func applyNullCheck(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	if rng.Intn(2) == 0 {
		out.insert(a.bodyStart+1,
			"\tif ("+guardCond(a, rng, 0.6)+")",
			guardBody(a, rng))
	} else {
		i := out.findContains(a.bodyStart, "->")
		if i < 0 {
			i = a.bodyStart + 1
		}
		out.insert(i,
			"\tif ("+a.structVar+" == NULL)",
			guardBody(a, rng))
	}
}

func applySanityCheck(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0:
		out.insert(a.loopLine,
			"\tif ("+guardCond(a, rng, 0.6)+")",
			guardBody(a, rng))
	case 1:
		out.insert(a.loopLine,
			"\tif ("+a.countVar+" == 0 && "+a.structVar+"->refs <= 0)",
			guardBody(a, rng))
	default:
		// Strengthen the existing condition with a state validity test.
		i := out.findContains(a.ifLine-1, "if (")
		if i >= 0 {
			out.lines[i] = strings.Replace(out.lines[i], "if (",
				"if ("+a.structVar+"->refs > 0 && ", 1)
		}
	}
}

func applyVarDef(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	if rng.Intn(2) == 0 {
		// int -> unsigned int for the index (signedness vulnerability fix).
		i := out.findContains(a.bodyStart, "int "+a.idxVar+";")
		if i >= 0 {
			out.lines[i] = strings.Replace(out.lines[i], "int ", "unsigned int ", 1)
		}
	} else {
		// Resize the stack buffer.
		i := out.find(a.bodyStart, func(s string) bool {
			return strings.Contains(s, "char "+a.tmpBuf+"[")
		})
		if i >= 0 {
			out.lines[i] = "\tchar " + a.tmpBuf + "[" + strconv.Itoa(256<<rng.Intn(2)) + "];"
		}
	}
}

func applyVarValue(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	if rng.Intn(2) == 0 {
		// Zero the buffer to prevent information leak.
		i := out.find(a.bodyStart, func(s string) bool {
			return strings.Contains(s, "char "+a.tmpBuf+"[")
		})
		if i >= 0 {
			out.insert(i+1, "\tmemset("+a.tmpBuf+", 0, sizeof("+a.tmpBuf+"));")
		}
	} else {
		// Mask the attacker-influenced counter.
		i := out.findContains(a.bodyStart, "int "+a.countVar+" = "+a.structVar+"->")
		if i >= 0 {
			out.lines[i] = strings.TrimSuffix(out.lines[i], ";") + " & 0xffff;"
		}
	}
}

func applyFuncDecl(out *srcFile, a *fnAnchors) {
	// Widen the return type (truncation fix).
	out.lines[a.sigLine] = strings.Replace(out.lines[a.sigLine], "static int ", "static long ", 1)
	i := out.findContains(a.bodyStart, "int "+a.retVar+" = 0;")
	if i >= 0 {
		out.lines[i] = strings.Replace(out.lines[i], "int ", "long ", 1)
	}
}

func applyFuncParam(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	if rng.Intn(2) == 0 {
		// Add an explicit capacity parameter and honor it.
		out.lines[a.sigLine] = strings.Replace(out.lines[a.sigLine], ")",
			", int cap)", 1)
		i := out.findContains(a.bodyStart, "memcpy(")
		if i >= 0 {
			out.insert(i,
				"\tif ("+a.lenParam+" > cap)",
				"\t\treturn -1;")
		}
	} else {
		// const-qualify the input buffer (write-protection fix).
		out.lines[a.sigLine] = strings.Replace(out.lines[a.sigLine],
			"char *"+a.ptrParam, "const char *"+a.ptrParam, 1)
	}
}

func applyFuncCall(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0:
		// Unsafe copy -> bounded copy (strcpy->strlcpy analogue).
		i := out.findContains(a.bodyStart, "memcpy(")
		if i >= 0 {
			out.lines[i] = "\tsafe_copy(" + a.tmpBuf + ", sizeof(" + a.tmpBuf + "), " +
				a.ptrParam + ", " + a.lenParam + ");"
		}
	case 1:
		// Race condition fix: lock/unlock around the shared-state update
		// (Table VII, race condition fix pattern).
		i := out.findContains(a.bodyStart, "->flags |=")
		if i >= 0 {
			out.insert(i+1, "\t\tstate_unlock("+a.structVar+");")
			out.insert(i, "\t\tstate_lock("+a.structVar+");")
		}
	case 2:
		// Data leakage fix: release the critical value after last use
		// (Table VII, data leakage fix pattern).
		i := out.findContains(a.bodyStart, "return "+a.retVar+";")
		if i < 0 {
			i = a.returnLine
		}
		out.insert(i, "\trelease_state("+a.structVar+");")
	default:
		// Replace the transform with its validated variant.
		i := out.findContains(a.bodyStart, a.calleeName+"(")
		if i >= 0 {
			out.lines[i] = strings.Replace(out.lines[i], a.calleeName+"(",
				a.calleeName+"_checked(", 1)
		}
	}
}

func applyJump(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	// Add proper error handling via goto.
	i := out.findContains(a.bodyStart, a.retVar+" = "+a.calleeName+"(")
	if i < 0 {
		i = a.callLine
	}
	out.insert(i+1,
		"\t\tif ("+a.retVar+" < 0)",
		"\t\t\tgoto fail;")
	j := out.findContains(i, "return "+a.retVar+";")
	if j >= 0 {
		out.insert(j+1,
			"fail:",
			"\t"+a.structVar+"->refs--;",
			"\treturn -1;")
	}
	_ = rng
}

func applyMove(out *srcFile, a *fnAnchors) {
	// Move the refcount bump from the end to before first use
	// (use-after-free / uninitialized-use shape): pure relocation.
	src := out.findContains(a.bodyStart, a.structVar+"->refs++;")
	if src < 0 {
		return
	}
	line := out.lines[src]
	out.lines = append(out.lines[:src], out.lines[src+1:]...)
	dst := out.findContains(a.bodyStart, "for (")
	if dst < 0 || dst > src {
		dst = a.bodyStart + 1
	}
	out.insert(dst, line)
}

func applyRedesign(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	// Rewrite the conditional block wholesale: new logic, new helper calls,
	// extra loop — the large multi-line change signature of Type 11. Target
	// the braced top-level `if (...) {` block so the replacement region is
	// exactly one balanced block.
	start := out.find(a.bodyStart, func(s string) bool {
		return strings.HasPrefix(s, "\tif (") && strings.HasSuffix(s, "{")
	})
	if start < 0 {
		return
	}
	end := out.find(start, func(s string) bool { return s == "\t}" })
	if end < 0 || end-start > 12 {
		return
	}
	replacement := []string{
		"\tif (" + a.countVar + " > 0 && " + a.structVar + "->refs < " + strconv.Itoa(8+rng.Intn(56)) + ") {",
		"\t\tint step = " + a.calleeName + "(" + a.countVar + ", " + strconv.Itoa(1+rng.Intn(7)) + ");",
		"\t\twhile (step > 0 && " + a.retVar + " > 0) {",
		"\t\t\t" + a.retVar + " -= step;",
		"\t\t\tstep >>= 1;",
		"\t\t}",
		"\t\t" + a.structVar + "->flags &= ~0x" + strconv.FormatInt(1<<rng.Intn(5), 16) + "u;",
		"\t\t" + a.retVar + " = validate_result(" + a.retVar + ", " + a.countVar + ");",
		"\t}",
	}
	out.lines = append(out.lines[:start], append(replacement, out.lines[end+1:]...)...)
}

func applyOther(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	// Uncommon minor change: adjust a masking constant.
	i := out.find(a.bodyStart, func(s string) bool { return strings.Contains(s, "& 0x") })
	if i < 0 {
		return
	}
	masks := []string{"0x7f", "0x3f", "0xff", "0x1f"}
	old := out.lines[i]
	for _, m := range masks {
		if strings.Contains(old, m) {
			next := masks[rng.Intn(len(masks))]
			for next == m {
				next = masks[rng.Intn(len(masks))]
			}
			out.lines[i] = strings.Replace(old, m, next, 1)
			return
		}
	}
}
