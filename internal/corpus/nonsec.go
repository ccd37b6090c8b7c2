// Non-security patch editors: bug fixes (performance, logic), new features,
// refactorings, and cleanups. Some deliberately share surface syntax with
// security patches (e.g. a performance early-exit adds an `if` + `return`
// just like a sanity check) — the overlap is what makes identification a
// learning problem rather than a lookup, matching the 6-10% base rate and
// imperfect classifier accuracy the paper reports.
package corpus

import (
	"math/rand"
	"strconv"
	"strings"
)

// NonSecClass identifies a non-security change class.
type NonSecClass int

const (
	// NonSecFeature adds new functionality (many added lines, new
	// functions).
	NonSecFeature NonSecClass = iota + 1
	// NonSecPerf is a performance fix (caching, early exits, cheaper ops).
	NonSecPerf
	// NonSecLogic is a functional bug fix with no security impact.
	NonSecLogic
	// NonSecRefactor renames/reshuffles without behavior change.
	NonSecRefactor
	// NonSecCleanup is stylistic (comments, spacing, dead code removal).
	NonSecCleanup
	// NonSecHardening applies defensive checks in bulk ("adopt upstream
	// hardening guidelines"): syntactically security-shaped but not a fix
	// for any concrete vulnerability. The class occurs in the wild but NOT
	// in the cleaned negative training set — it is the distribution
	// discrepancy that makes confidence-ranked augmentation baselines
	// collapse (paper Sec. IV-B).
	NonSecHardening
)

// NumNonSecClasses is the number of non-security classes.
const NumNonSecClasses = 6

// String names the class.
func (c NonSecClass) String() string {
	switch c {
	case NonSecFeature:
		return "new feature"
	case NonSecPerf:
		return "performance fix"
	case NonSecLogic:
		return "logic bug fix"
	case NonSecRefactor:
		return "refactoring"
	case NonSecCleanup:
		return "cleanup"
	case NonSecHardening:
		return "bulk hardening"
	default:
		return "unknown"
	}
}

// applyNonSecurity returns the post-patch version of f under the given
// non-security class.
func applyNonSecurity(f *srcFile, c NonSecClass, rng *rand.Rand) *srcFile {
	out := f.clone()
	a := &out.fn
	switch c {
	case NonSecFeature:
		applyFeature(out, a, rng)
	case NonSecPerf:
		applyPerf(out, a, rng)
	case NonSecLogic:
		applyLogic(out, a, rng)
	case NonSecRefactor:
		applyRefactor(out, a, rng)
	case NonSecCleanup:
		applyCleanup(out, a, rng)
	case NonSecHardening:
		applyHardening(out, a, rng)
	}
	return out
}

// applyHardening is a "modernization + hardening sweep": the function's
// conditional block is restructured wholesale and defensive guards are
// sprinkled in — the syntactic twin of a Type 11 security redesign, applied
// as policy rather than as a fix for a concrete vulnerability. Because this
// family mimics the NVD head class but carries a non-security label, it is
// precisely the wild population that misleads confidence-ranked candidate
// selection while leaving nearest-link selection mostly intact.
func applyHardening(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	applyRedesign(out, a, rng)
	for k := rng.Intn(2) + 1; k > 0; k-- {
		out.insert(a.bodyStart+1,
			"	if ("+guardCond(a, rng, 0.6)+")",
			guardBody(a, rng))
	}
	if rng.Intn(2) == 0 {
		i := out.findContains(a.bodyStart, "->flags")
		if i >= 0 {
			out.insert(i+1, "	state_unlock("+a.structVar+");")
			out.insert(i, "	state_lock("+a.structVar+");")
		}
	}
}

func applyFeature(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	// Append a new exported function and register it from the primary one.
	feature := ident(rng, verbs, nouns)
	stat := pick(rng, helperSuffixes)
	newFn := []string{
		"",
		"int " + feature + "_stats(struct " + a.ptrParam + "_state *s, int *out_" + stat + ")",
		"{",
		"\tif (s == NULL || out_" + stat + " == NULL)",
		"\t\treturn -1;",
		"\t*out_" + stat + " = s->refs;",
		"\ts->flags |= " + strconv.Itoa(1<<rng.Intn(6)) + "u;",
		"\treturn 0;",
		"}",
	}
	if rng.Intn(2) == 0 {
		walk := []string{
			"\twhile (s->next != NULL && s->refs < " + strconv.Itoa(16<<rng.Intn(4)) + ") {",
			"\t\ts = s->next;",
			"\t\t*out_" + stat + " += 1;",
			"\t}",
		}
		newFn = append(newFn[:len(newFn)-2], append(walk, newFn[len(newFn)-2:]...)...)
	}
	out.lines = append(out.lines, newFn...)
	switch rng.Intn(3) {
	case 0:
		// Also thread a new option through the primary function.
		i := out.findContains(a.bodyStart, "for (")
		if i >= 0 {
			out.insert(i,
				"\tif ("+a.structVar+"->flags & 0x100u)",
				"\t\t"+a.countVar+" = "+a.countVar+" * 2;",
				"")
		}
	case 1:
		// Instrument the primary function with tracing calls.
		i := out.findContains(a.bodyStart, "for (")
		if i >= 0 {
			out.insert(i, "\ttrace_event("+a.structVar+", "+a.lenParam+");")
		}
		j := out.findContains(a.bodyStart, "return "+a.retVar+";")
		if j >= 0 {
			out.insert(j, "\ttrace_done("+a.structVar+", "+a.retVar+");")
		}
	}
}

func applyPerf(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0:
		// Early exit on empty input (systemd-Listing-2-like: an `if` that is
		// NOT a security fix).
		out.insert(a.bodyStart+1,
			"\tif ("+guardCond(a, rng, 0.4)+")",
			guardBody(a, rng))
	case 1:
		// Hoist an invariant computation out of the loop.
		i := out.findContains(a.bodyStart, "for (")
		if i >= 0 {
			out.insert(i, "\tint scale = "+a.countVar+" * "+strconv.Itoa(1+rng.Intn(4))+";")
			j := out.findContains(i+1, a.calleeName+"(")
			if j >= 0 {
				out.lines[j] = strings.Replace(out.lines[j], a.countVar, "scale", 1)
			}
		}
	case 2:
		// Replace the modulo-style helper use with a shift.
		i := out.findContains(a.bodyStart, "& 0x")
		if i >= 0 {
			out.lines[i] = strings.Replace(out.lines[i], "& 0x", ">> 1 & 0x", 1)
		}
	default:
		// Drain cheap work in a batch loop before the main pass.
		out.insert(a.loopLine,
			"\twhile ("+a.countVar+" > "+strconv.Itoa(8<<rng.Intn(4))+" && ("+a.structVar+"->flags & 0x"+strconv.FormatInt(1<<rng.Intn(4), 16)+"u)) {",
			"\t\t"+a.countVar+" -= "+strconv.Itoa(1+rng.Intn(4))+";",
			"\t}")
	}
}

func applyLogic(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	switch rng.Intn(6) {
	case 0:
		// Fix an accumulation formula.
		i := out.findContains(a.bodyStart, a.retVar+" +=")
		if i >= 0 {
			out.lines[i] = strings.Replace(out.lines[i], "+=", "+= 2 *", 1)
		}
	case 1:
		// Loop start off-by-one style functional change.
		i := out.findContains(a.bodyStart, "for (")
		if i >= 0 {
			out.lines[i] = strings.Replace(out.lines[i],
				a.idxVar+" = 0", a.idxVar+" = 1", 1)
		}
	case 2:
		// Clamp an input to the configured maximum: changes behaviour on
		// big inputs but is a functional tuning fix, not a vulnerability
		// fix. Syntactically it is nearly indistinguishable from a bound
		// check — exactly the ambiguity human verification resolves.
		out.insert(a.loopLine,
			"\tif ("+guardCond(a, rng, 0.4)+")",
			guardBody(a, rng))
	case 3:
		// Overlapping-copy correctness fix (memcpy -> memmove): a memory
		// operator change that is not security-motivated here.
		i := out.findContains(a.bodyStart, "memcpy(")
		if i >= 0 {
			out.lines[i] = strings.Replace(out.lines[i], "memcpy(", "memmove(", 1)
		}
	case 4:
		// Route the result through a rounding/normalization helper.
		i := out.findContains(a.bodyStart, "return "+a.retVar+";")
		if i >= 0 {
			out.lines[i] = "\treturn " + pick(rng, callees) + "(" + a.retVar + ", " + strconv.Itoa(1+rng.Intn(8)) + ");"
		}
	default:
		// Adjust the threshold condition value (tuning, not hardening).
		i := out.findContains(a.bodyStart, "if (")
		if i >= 0 && strings.Contains(out.lines[i], "> ") {
			out.lines[i] = strings.Replace(out.lines[i], "> ", ">= ", 1)
		}
	}
}

func applyRefactor(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	// Rename the result variable across the function (many small hunks).
	newName := []string{"result", "rc", "status", "acc"}[rng.Intn(4)]
	for i := a.bodyStart; i < len(out.lines); i++ {
		out.lines[i] = replaceWord(out.lines[i], a.retVar, newName)
	}
	a.retVar = newName
}

func applyCleanup(out *srcFile, a *fnAnchors, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0:
		// Document the primary function.
		out.insert(a.sigLine,
			"/* "+a.name+": process a "+a.ptrParam+" of up to "+a.lenParam+" bytes. */")
	case 1:
		// Drop a blank line and add a trailing comment.
		i := out.find(a.bodyStart, func(s string) bool { return s == "" })
		if i >= 0 {
			out.lines = append(out.lines[:i], out.lines[i+1:]...)
		}
		out.insert(len(out.lines), "/* end of file */")
	default:
		// Normalize a hex constant's case.
		i := out.findContains(0, "0xff")
		if i >= 0 {
			out.lines[i] = strings.Replace(out.lines[i], "0xff", "0xFF", 1)
		} else {
			out.insert(a.sigLine, "/* reviewed */")
		}
	}
}

// replaceWord substitutes whole-identifier occurrences of old with new.
func replaceWord(line, old, new string) string {
	var b strings.Builder
	i := 0
	for i < len(line) {
		j := strings.Index(line[i:], old)
		if j < 0 {
			b.WriteString(line[i:])
			break
		}
		j += i
		beforeOK := j == 0 || !isIdentByte(line[j-1])
		afterOK := j+len(old) >= len(line) || !isIdentByte(line[j+len(old)])
		if beforeOK && afterOK {
			b.WriteString(line[i:j])
			b.WriteString(new)
		} else {
			b.WriteString(line[i : j+len(old)])
		}
		i = j + len(old)
	}
	return b.String()
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
