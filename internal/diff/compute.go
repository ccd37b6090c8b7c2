package diff

import (
	"sort"
	"strings"
	"sync"
)

// editOp is one element of an edit script.
type editOp struct {
	kind LineKind // Context = keep, Removed = delete from old, Added = insert from new
	text string
}

// scratch holds the per-call buffers of Compute: the split lines, the
// Myers trace and the edit scripts. Nothing in it escapes a call (the hunks
// get their own lines), so the buffers are recycled through scratchPool
// instead of being allocated for every file of every commit.
type scratch struct {
	oldLines, newLines []string
	trace              []int
	ops, script        []editOp
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release drops the scratch's string references, so a pooled buffer keeps
// no file text alive, and returns it to the pool.
func (sc *scratch) release() {
	clear(sc.oldLines)
	clear(sc.newLines)
	clear(sc.ops)
	clear(sc.script)
	scratchPool.Put(sc)
}

// Compute builds the per-file diff between two versions of a file using the
// Myers O(ND) algorithm, grouped into hunks with the given number of context
// lines. It returns nil if the versions are identical.
func Compute(path string, oldText, newText string, contextLines int) *FileDiff {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.oldLines = appendLines(sc.oldLines[:0], oldText)
	sc.newLines = appendLines(sc.newLines[:0], newText)
	script := sc.myers(sc.oldLines, sc.newLines)
	changed := false
	for _, op := range script {
		if op.kind != Context {
			changed = true
			break
		}
	}
	if !changed {
		return nil
	}
	fd := &FileDiff{OldPath: path, NewPath: path}
	fd.Hunks = groupHunks(script, contextLines)
	return fd
}

// ComputePatch diffs a whole set of files (map path -> content) and
// assembles a Patch. Files present in only one side are treated as
// added/deleted wholesale.
func ComputePatch(commit, message string, oldFiles, newFiles map[string]string, contextLines int) *Patch {
	p := &Patch{Commit: commit, Message: message}
	paths := make([]string, 0, len(oldFiles)+len(newFiles))
	seen := make(map[string]bool, len(oldFiles)+len(newFiles))
	for path := range oldFiles {
		paths = append(paths, path)
		seen[path] = true
	}
	for path := range newFiles {
		if !seen[path] {
			paths = append(paths, path)
		}
	}
	sortStrings(paths)
	for _, path := range paths {
		fd := Compute(path, oldFiles[path], newFiles[path], contextLines)
		if fd != nil {
			p.Files = append(p.Files, fd)
		}
	}
	return p
}

func splitLines(text string) []string { return appendLines(nil, text) }

// appendLines appends the lines of text to dst. A trailing newline does not
// start one more (empty) line, so the count matches the visible lines.
func appendLines(dst []string, text string) []string {
	for text != "" {
		i := strings.IndexByte(text, '\n')
		if i < 0 {
			return append(dst, text)
		}
		dst = append(dst, text[:i])
		text = text[i+1:]
	}
	return dst
}

// myers computes a line-level edit script using the greedy Myers algorithm.
// The script lives in the scratch and is valid until its release.
//
// Row d of the trace holds the furthest x reached on the diagonals
// k = -d, -d+2, ..., d by step d, at trace[d(d+1)/2 + (k+d)/2]. Step d reads
// only row d-1, and so does the backtrack, so the trace is O(D²) ints
// rather than a copy of the whole V array per step.
func (sc *scratch) myers(a, b []string) []editOp {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	trace := sc.trace[:0]
	dFound := -1
	for d := 0; dFound < 0; d++ {
		prev := trace[len(trace)-d:] // row d-1; empty at d = 0
		for k := -d; k <= d; k += 2 {
			// Diagonal k-1 is prev[i-1] and k+1 is prev[i].
			i := (k + d) / 2
			var x int
			switch {
			case d == 0:
				x = 0
			case k == -d || (k != d && prev[i-1] < prev[i]):
				x = prev[i]
			default:
				x = prev[i-1] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			trace = append(trace, x)
			if x >= n && y >= m {
				dFound = d
				break
			}
		}
	}
	sc.trace = trace
	// Backtrack.
	ops := sc.ops[:0]
	x, y := n, m
	for d := dFound; d > 0; d-- {
		prev := trace[(d-1)*d/2 : d*(d+1)/2]
		k := x - y
		i := (k + d) / 2
		var prevK, prevX int
		if k == -d || (k != d && prev[i-1] < prev[i]) {
			prevK, prevX = k+1, prev[i]
		} else {
			prevK, prevX = k-1, prev[i-1]
		}
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			ops = append(ops, editOp{kind: Context, text: a[x]})
		}
		if x == prevX {
			y--
			ops = append(ops, editOp{kind: Added, text: b[y]})
		} else {
			x--
			ops = append(ops, editOp{kind: Removed, text: a[x]})
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		ops = append(ops, editOp{kind: Context, text: a[x]})
	}
	for y > 0 {
		y--
		ops = append(ops, editOp{kind: Added, text: b[y]})
	}
	for x > 0 {
		x--
		ops = append(ops, editOp{kind: Removed, text: a[x]})
	}
	reverseOps(ops)
	sc.ops = ops
	sc.script = normalizeScript(sc.script[:0], ops)
	return sc.script
}

// normalizeScript appends ops to dst with each change region reordered so
// removals precede additions, matching git's unified diff convention.
func normalizeScript(dst, ops []editOp) []editOp {
	for i := 0; i < len(ops); {
		if ops[i].kind == Context {
			dst = append(dst, ops[i])
			i++
			continue
		}
		j := i
		for j < len(ops) && ops[j].kind != Context {
			j++
		}
		for _, kind := range [2]LineKind{Removed, Added} {
			for _, op := range ops[i:j] {
				if op.kind == kind {
					dst = append(dst, op)
				}
			}
		}
		i = j
	}
	return dst
}

func reverseOps(ops []editOp) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// changeSpan returns the next change region of script at or after from,
// with regions whose context gap is <= 2*contextLines merged into one.
// start is len(script) when no change is left.
func changeSpan(script []editOp, from, contextLines int) (start, end int) {
	start = from
	for start < len(script) && script[start].kind == Context {
		start++
	}
	end = start
	for end < len(script) {
		for end < len(script) && script[end].kind != Context {
			end++
		}
		next := end
		for next < len(script) && script[next].kind == Context {
			next++
		}
		if next == len(script) || next-end > 2*contextLines {
			break
		}
		end = next
	}
	return start, end
}

// groupHunks slices an edit script into hunks separated by more than
// 2*contextLines of unchanged lines.
func groupHunks(script []editOp, contextLines int) []*Hunk {
	var hunks []*Hunk
	oldAt, newAt, pos := 0, 0, 0 // old/new lines consumed before script[pos]
	for start, end := changeSpan(script, 0, contextLines); start < len(script); start, end = changeSpan(script, end, contextLines) {
		lo := max(start-contextLines, 0)
		hi := min(end+contextLines, len(script))
		for ; pos < lo; pos++ {
			switch script[pos].kind {
			case Context:
				oldAt++
				newAt++
			case Removed:
				oldAt++
			case Added:
				newAt++
			}
		}
		h := &Hunk{OldStart: oldAt + 1, NewStart: newAt + 1, Lines: make([]Line, hi-lo)}
		for i, op := range script[lo:hi] {
			h.Lines[i] = Line{Kind: op.kind, Text: op.text}
			switch op.kind {
			case Context:
				h.OldLines++
				h.NewLines++
			case Removed:
				h.OldLines++
			case Added:
				h.NewLines++
			}
		}
		if h.OldLines == 0 {
			h.OldStart--
		}
		if h.NewLines == 0 {
			h.NewStart--
		}
		hunks = append(hunks, h)
	}
	return hunks
}

func sortStrings(s []string) { sort.Strings(s) }

// Apply reconstructs the new version of a file from the old version and the
// file's hunks. It returns an error if the hunks do not match the old text.
func Apply(oldText string, fd *FileDiff) (string, error) {
	oldLines := splitLines(oldText)
	var out []string
	cursor := 0 // 0-based index into oldLines
	for _, h := range fd.Hunks {
		start := h.OldStart - 1
		if h.OldLines == 0 {
			start = h.OldStart
		}
		if start < cursor || start > len(oldLines) {
			return "", &ParseError{Reason: "hunk does not fit old file"}
		}
		out = append(out, oldLines[cursor:start]...)
		cursor = start
		for _, ln := range h.Lines {
			switch ln.Kind {
			case Context:
				if cursor >= len(oldLines) || oldLines[cursor] != ln.Text {
					return "", &ParseError{Reason: "context mismatch applying hunk"}
				}
				out = append(out, ln.Text)
				cursor++
			case Removed:
				if cursor >= len(oldLines) || oldLines[cursor] != ln.Text {
					return "", &ParseError{Reason: "removed-line mismatch applying hunk"}
				}
				cursor++
			case Added:
				out = append(out, ln.Text)
			}
		}
	}
	out = append(out, oldLines[cursor:]...)
	if len(out) == 0 {
		return "", nil
	}
	return strings.Join(out, "\n") + "\n", nil
}
