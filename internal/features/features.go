// Package features implements the 60-dimensional syntactic feature vector of
// PatchDB Table I. Features are extracted directly from a parsed patch (the
// patch is not a complete compilation unit, so the extractor is a line/token
// level parser rather than a full compiler front end, exactly as in the
// paper).
package features

import (
	"strings"
	"sync"

	"patchdb/internal/ctoken"
	"patchdb/internal/diff"
	"patchdb/internal/lev"
)

// Dim is the dimensionality of the feature space (Table I lists 60 features).
const Dim = 60

// Indices of notable features, exported for tests and ablations.
const (
	IdxChangedLines   = 0  // feature 1
	IdxHunks          = 1  // feature 2
	IdxAddedLines     = 2  // features 3-6 start
	IdxAddedChars     = 6  // features 7-10 start
	IdxIfStmts        = 10 // features 11-14 start
	IdxLoops          = 14 // features 15-18
	IdxCalls          = 18 // features 19-22
	IdxArith          = 22 // features 23-26
	IdxRel            = 26 // features 27-30
	IdxLogic          = 30 // features 31-34
	IdxBit            = 34 // features 35-38
	IdxMem            = 38 // features 39-42
	IdxVars           = 42 // features 43-46
	IdxFuncsTotal     = 46 // feature 47
	IdxFuncsNet       = 47 // feature 48
	IdxLevMeanRaw     = 48 // features 49-51
	IdxLevMeanAbs     = 51 // features 52-54
	IdxSameHunksRaw   = 54 // feature 55
	IdxSameHunksAbs   = 55 // feature 56
	IdxAffectedFiles  = 56 // feature 57
	IdxAffectedFilesP = 57 // feature 58
	IdxAffectedFuncs  = 58 // feature 59
	IdxAffectedFuncsP = 59 // feature 60
)

// names holds a short label per dimension, aligned with Table I.
var names = [Dim]string{
	"changed_lines", "hunks",
	"added_lines", "removed_lines", "total_lines", "net_lines",
	"added_chars", "removed_chars", "total_chars", "net_chars",
	"added_ifs", "removed_ifs", "total_ifs", "net_ifs",
	"added_loops", "removed_loops", "total_loops", "net_loops",
	"added_calls", "removed_calls", "total_calls", "net_calls",
	"added_arith", "removed_arith", "total_arith", "net_arith",
	"added_rel", "removed_rel", "total_rel", "net_rel",
	"added_logic", "removed_logic", "total_logic", "net_logic",
	"added_bit", "removed_bit", "total_bit", "net_bit",
	"added_mem", "removed_mem", "total_mem", "net_mem",
	"added_vars", "removed_vars", "total_vars", "net_vars",
	"total_modified_funcs", "net_modified_funcs",
	"lev_mean_raw", "lev_min_raw", "lev_max_raw",
	"lev_mean_abs", "lev_min_abs", "lev_max_abs",
	"same_hunks_raw", "same_hunks_abs",
	"affected_files", "affected_files_pct",
	"affected_funcs", "affected_funcs_pct",
}

// Names returns the label of every feature dimension in order.
func Names() []string {
	out := make([]string, Dim)
	copy(out, names[:])
	return out
}

// Name returns the label of dimension i.
func Name(i int) string {
	if i < 0 || i >= Dim {
		return "invalid"
	}
	return names[i]
}

// counters aggregates one token family over added and removed lines.
type counters struct {
	added, removed int
}

func (c counters) write(v []float64, base int) {
	v[base] = float64(c.added)
	v[base+1] = float64(c.removed)
	v[base+2] = float64(c.added + c.removed)
	v[base+3] = float64(c.added - c.removed)
}

// scratch is Extract's working memory, recycled through scratchPool: one
// lexer buffer for every changed line, one set of per-hunk token lists for
// every hunk, and the per-hunk Levenshtein distances.
type scratch struct {
	toks                                       []ctoken.Token
	addedRaw, removedRaw, addedAbs, removedAbs []string
	levRaw, levAbs                             []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release drops the scratch's references into the patch text, so a pooled
// buffer keeps no patch alive, and returns it to the pool.
func (sc *scratch) release() {
	clear(sc.toks[:cap(sc.toks)])
	for _, s := range [...][]string{sc.addedRaw, sc.removedRaw, sc.addedAbs, sc.removedAbs} {
		clear(s[:cap(s)])
	}
	scratchPool.Put(sc)
}

// Extract computes the 60-dimensional feature vector for a patch. totalFiles
// is the number of files in the commit before non-C/C++ stripping (used by
// feature 58, "% of affected files"); pass 0 if unknown and the stripped
// file count is used as the denominator.
func Extract(p *diff.Patch, totalFiles int) []float64 {
	v := make([]float64, Dim)

	var lines, chars, ifs, loops, calls, arith, rel, logic, bit, mem, vars counters
	funcsSeen := make(map[string]bool)
	var funcDefsAdded, funcDefsRemoved int

	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.levRaw, sc.levAbs = sc.levRaw[:0], sc.levAbs[:0]
	var sameRaw, sameAbs int
	hunkCount := 0

	for _, f := range p.Files {
		for _, h := range f.Hunks {
			hunkCount++
			if h.Section != "" {
				funcsSeen[f.NewPath+"::"+sectionFuncName(h.Section)] = true
			}
			sc.addedRaw, sc.removedRaw = sc.addedRaw[:0], sc.removedRaw[:0]
			sc.addedAbs, sc.removedAbs = sc.addedAbs[:0], sc.removedAbs[:0]
			for _, ln := range h.Lines {
				if ln.Kind == diff.Context {
					continue
				}
				sc.toks = ctoken.LexAppend(sc.toks[:0], ln.Text, 1)
				toks := sc.toks
				added := ln.Kind == diff.Added
				bump(&lines, added, 1)
				bump(&chars, added, len(ln.Text))
				if isFunctionDefLine(ln.Text, toks) {
					if added {
						funcDefsAdded++
					} else {
						funcDefsRemoved++
					}
				}
				raw, abs := &sc.removedRaw, &sc.removedAbs
				if added {
					raw, abs = &sc.addedRaw, &sc.addedAbs
				}
				for _, t := range toks {
					*raw = append(*raw, t.Text)
					*abs = append(*abs, ctoken.AbstractOne(t))
					switch {
					case ctoken.IsIfKeyword(t):
						bump(&ifs, added, 1)
					case ctoken.IsLoopKeyword(t):
						bump(&loops, added, 1)
					}
					if ctoken.IsMemoryOperator(t) {
						bump(&mem, added, 1)
					}
					switch t.Kind {
					case ctoken.ArithmeticOp:
						bump(&arith, added, 1)
					case ctoken.RelationalOp:
						bump(&rel, added, 1)
					case ctoken.LogicalOp:
						bump(&logic, added, 1)
					case ctoken.BitwiseOp:
						bump(&bit, added, 1)
					case ctoken.Identifier:
						if t.Call {
							bump(&calls, added, 1)
						} else {
							bump(&vars, added, 1)
						}
					}
				}
			}
			dRaw := lev.Distance(sc.removedRaw, sc.addedRaw)
			dAbs := lev.Distance(sc.removedAbs, sc.addedAbs)
			sc.levRaw = append(sc.levRaw, float64(dRaw))
			sc.levAbs = append(sc.levAbs, float64(dAbs))
			if dRaw == 0 {
				sameRaw++
			}
			if dAbs == 0 {
				sameAbs++
			}
		}
	}

	v[IdxChangedLines] = float64(lines.added + lines.removed)
	v[IdxHunks] = float64(hunkCount)
	lines.write(v, IdxAddedLines)
	chars.write(v, IdxAddedChars)
	ifs.write(v, IdxIfStmts)
	loops.write(v, IdxLoops)
	calls.write(v, IdxCalls)
	arith.write(v, IdxArith)
	rel.write(v, IdxRel)
	logic.write(v, IdxLogic)
	bit.write(v, IdxBit)
	mem.write(v, IdxMem)
	vars.write(v, IdxVars)
	v[IdxFuncsTotal] = float64(len(funcsSeen))
	v[IdxFuncsNet] = float64(funcDefsAdded - funcDefsRemoved)

	mean, lo, hi := stats(sc.levRaw)
	v[IdxLevMeanRaw], v[IdxLevMeanRaw+1], v[IdxLevMeanRaw+2] = mean, lo, hi
	mean, lo, hi = stats(sc.levAbs)
	v[IdxLevMeanAbs], v[IdxLevMeanAbs+1], v[IdxLevMeanAbs+2] = mean, lo, hi
	v[IdxSameHunksRaw] = float64(sameRaw)
	v[IdxSameHunksAbs] = float64(sameAbs)

	affected := len(p.Files)
	v[IdxAffectedFiles] = float64(affected)
	denomFiles := totalFiles
	if denomFiles < affected {
		denomFiles = affected
	}
	if denomFiles > 0 {
		v[IdxAffectedFilesP] = float64(affected) / float64(denomFiles)
	}
	v[IdxAffectedFuncs] = float64(len(funcsSeen))
	if hunkCount > 0 {
		// Functions per hunk: a proxy for how spread out the change is.
		v[IdxAffectedFuncsP] = float64(len(funcsSeen)) / float64(hunkCount)
	}
	return v
}

func bump(c *counters, added bool, n int) {
	if added {
		c.added += n
	} else {
		c.removed += n
	}
}

func stats(xs []float64) (mean, lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	lo, hi = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return sum / float64(len(xs)), lo, hi
}

// sectionFuncName extracts the function name from a hunk section string such
// as "static int bit_write_UMC (Bit_Chain *dat, ...)".
func sectionFuncName(section string) string {
	if i := strings.IndexByte(section, '('); i >= 0 {
		section = section[:i]
	}
	fields := strings.Fields(section)
	if len(fields) == 0 {
		return section
	}
	name := fields[len(fields)-1]
	return strings.TrimLeft(name, "*&")
}

// isFunctionDefLine heuristically detects a C function definition line:
// starts at column 0 (no leading whitespace in the patch line), contains an
// identifier call-form, and is not a control-flow statement or a call
// statement ending in ';'.
func isFunctionDefLine(text string, toks []ctoken.Token) bool {
	if text == "" || text[0] == ' ' || text[0] == '\t' {
		return false
	}
	trimmed := strings.TrimSpace(text)
	if strings.HasSuffix(trimmed, ";") {
		return false
	}
	callIdx := -1
	for i, t := range toks {
		if t.Kind == ctoken.Keyword {
			switch t.Text {
			case "if", "while", "for", "switch", "return", "do", "else":
				return false
			}
		}
		if ctoken.IsFunctionCall(t) {
			callIdx = i
			break
		}
	}
	// A definition has at least a return type token before the name.
	return callIdx >= 1
}
