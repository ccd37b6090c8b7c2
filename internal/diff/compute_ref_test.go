package diff

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The Compute of earlier releases, kept as a test-only reference that pins
// the allocation-lean Compute to it hunk for hunk: splitLinesRef splits with
// strings.Split, myersRef keeps a full copy of V for every step d,
// normalizeScriptRef builds per-region temporaries and groupHunksRef grows
// each hunk line by line.

// computeRef is Compute over the reference kernels.
func computeRef(path, oldText, newText string, contextLines int) *FileDiff {
	script := myersRef(splitLinesRef(oldText), splitLinesRef(newText))
	for _, op := range script {
		if op.kind != Context {
			return &FileDiff{OldPath: path, NewPath: path, Hunks: groupHunksRef(script, contextLines)}
		}
	}
	return nil
}

func splitLinesRef(text string) []string {
	if text == "" {
		return nil
	}
	lines := strings.Split(text, "\n")
	// A trailing newline produces one empty trailing element; drop it so the
	// line count matches the visible lines.
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// myersRef computes a line-level edit script using the greedy Myers algorithm.
func myersRef(a, b []string) []editOp {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	max := n + m
	// v[k+max] = furthest x on diagonal k
	v := make([]int, 2*max+2)
	var trace [][]int
	var found bool
	var dFound int
	for d := 0; d <= max; d++ {
		snapshot := make([]int, len(v))
		copy(snapshot, v)
		trace = append(trace, snapshot)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+max] < v[k+1+max]) {
				x = v[k+1+max]
			} else {
				x = v[k-1+max] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+max] = x
			if x >= n && y >= m {
				found = true
				dFound = d
				break
			}
		}
		if found {
			snapshot := make([]int, len(v))
			copy(snapshot, v)
			trace = append(trace, snapshot)
			break
		}
	}
	// Backtrack.
	var ops []editOp
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vPrev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[k-1+max] < vPrev[k+1+max]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[prevK+max]
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
	return normalizeScriptRef(ops)
}

// normalizeScriptRef reorders each change region so removals precede additions,
// matching git's unified diff convention.
func normalizeScriptRef(ops []editOp) []editOp {
	out := make([]editOp, 0, len(ops))
	i := 0
	for i < len(ops) {
		if ops[i].kind == Context {
			out = append(out, ops[i])
			i++
			continue
		}
		var removed, added []editOp
		for i < len(ops) && ops[i].kind != Context {
			if ops[i].kind == Removed {
				removed = append(removed, ops[i])
			} else {
				added = append(added, ops[i])
			}
			i++
		}
		out = append(out, removed...)
		out = append(out, added...)
	}
	return out
}

// groupHunksRef slices an edit script into hunks separated by more than
// 2*contextLines of unchanged lines.
func groupHunksRef(script []editOp, contextLines int) []*Hunk {
	type region struct{ start, end int } // change region indices in script
	var regions []region
	for i := 0; i < len(script); i++ {
		if script[i].kind == Context {
			continue
		}
		start := i
		for i < len(script) && script[i].kind != Context {
			i++
		}
		regions = append(regions, region{start, i})
	}
	if len(regions) == 0 {
		return nil
	}
	// Merge regions whose context gap is <= 2*contextLines.
	var merged []region
	cur := regions[0]
	for _, r := range regions[1:] {
		if r.start-cur.end <= 2*contextLines {
			cur.end = r.end
		} else {
			merged = append(merged, cur)
			cur = r
		}
	}
	merged = append(merged, cur)

	// Precompute old/new line numbers before each script index.
	oldAt := make([]int, len(script)+1) // old lines consumed before index i
	newAt := make([]int, len(script)+1)
	for i, op := range script {
		oldAt[i+1] = oldAt[i]
		newAt[i+1] = newAt[i]
		switch op.kind {
		case Context:
			oldAt[i+1]++
			newAt[i+1]++
		case Removed:
			oldAt[i+1]++
		case Added:
			newAt[i+1]++
		}
	}

	hunks := make([]*Hunk, 0, len(merged))
	for _, r := range merged {
		lo := r.start - contextLines
		if lo < 0 {
			lo = 0
		}
		hi := r.end + contextLines
		if hi > len(script) {
			hi = len(script)
		}
		h := &Hunk{
			OldStart: oldAt[lo] + 1,
			NewStart: newAt[lo] + 1,
		}
		for i := lo; i < hi; i++ {
			h.Lines = append(h.Lines, Line{Kind: script[i].kind, Text: script[i].text})
			switch script[i].kind {
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

// randomLines draws n lines over an alphabet of k symbols, so equal lines,
// and with them Myers ties, are common.
func randomLines(rng *rand.Rand, n, k int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + rng.Intn(k)))
		b.WriteByte('\n')
	}
	return b.String()
}

func checkAgainstRef(t *testing.T, oldText, newText string) {
	t.Helper()
	for _, ctx := range []int{0, 1, 3} {
		got := Compute("f.c", oldText, newText, ctx)
		want := computeRef("f.c", oldText, newText, ctx)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("context %d: old=%q new=%q\ngot  %s\nwant %s", ctx, oldText, newText,
				formatDiff(got), formatDiff(want))
		}
	}
}

func formatDiff(fd *FileDiff) string {
	if fd == nil {
		return "<nil>"
	}
	return Format(&Patch{Commit: "x", Files: []*FileDiff{fd}})
}

// TestComputeMatchesReference pins Compute to the reference hunk for hunk
// on random sequences over 2-4 symbols, where ties between equally short
// scripts decide the output.
func TestComputeMatchesReference(t *testing.T) {
	checkAgainstRef(t, "a\nb\na\n", "a\n")
	checkAgainstRef(t, "a\n", "a\nb\na\n")
	checkAgainstRef(t, "", "a\nb\n")
	checkAgainstRef(t, "a\nb\n", "")
	checkAgainstRef(t, "a\nb\n", "a\nb\n")
	checkAgainstRef(t, "x", "x\ny")       // no trailing newline
	checkAgainstRef(t, "\n", "\n\na\n\n") // empty lines
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		k := 2 + rng.Intn(3)
		checkAgainstRef(t, randomLines(rng, rng.Intn(24), k), randomLines(rng, rng.Intn(24), k))
	}
	// Long sequences with a few edits: distant hunks and deep traces.
	for i := 0; i < 50; i++ {
		old := strings.Split(randomLines(rng, 200+rng.Intn(200), 4), "\n")
		lines := append([]string(nil), old...)
		for e := rng.Intn(12); e >= 0; e-- {
			j := rng.Intn(len(lines))
			switch rng.Intn(3) {
			case 0:
				lines[j] = "x"
			case 1:
				lines = append(lines[:j], lines[j+1:]...)
			default:
				lines = append(lines[:j], append([]string{"y"}, lines[j:]...)...)
			}
		}
		checkAgainstRef(t, strings.Join(old, "\n"), strings.Join(lines, "\n"))
	}
}
