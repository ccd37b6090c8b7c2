package features

import (
	"patchdb/internal/ctoken"
	"patchdb/internal/diff"
)

// Sequence markers injected between patch regions so the RNN can tell
// removed from added code and hunk boundaries, mirroring the paper's
// token-stream encoding ("the source code of a given patch as a list of
// tokens").
const (
	TokHunk    = "<hunk>"
	TokRemoved = "<->"
	TokAdded   = "<+>"
)

// TokenSequence flattens a patch into the abstracted token stream consumed
// by the RNN classifier: per hunk, a hunk marker, then the removed lines'
// tokens behind a removal marker, then the added lines' tokens behind an
// addition marker. Identifiers and literals are abstracted (VAR/FUNC/NUM/
// STR) so the vocabulary stays small and models generalize across
// projects.
func TokenSequence(p *diff.Patch) []string {
	var seq []string
	var toks []ctoken.Token // one lexer buffer for every line
	for _, h := range p.HunkList() {
		seq = append(seq, TokHunk)
		seq, toks = appendLines(seq, toks, h, diff.Removed, TokRemoved)
		seq, toks = appendLines(seq, toks, h, diff.Added, TokAdded)
	}
	return seq
}

func appendLines(seq []string, toks []ctoken.Token, h *diff.Hunk, kind diff.LineKind, marker string) ([]string, []ctoken.Token) {
	first := true
	for _, ln := range h.Lines {
		if ln.Kind != kind {
			continue
		}
		if first {
			seq = append(seq, marker)
			first = false
		}
		toks = ctoken.LexAppend(toks[:0], ln.Text, 1)
		for _, t := range toks {
			seq = append(seq, ctoken.AbstractOne(t))
		}
	}
	return seq, toks
}
