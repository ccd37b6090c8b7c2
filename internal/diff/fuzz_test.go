package diff

import (
	"strings"
	"testing"
)

// FuzzParse asserts that Parse never panics and that anything it accepts
// survives a Format/Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(samplePatch)
	f.Add("diff --git a/a.c b/a.c\n--- a/a.c\n+++ b/a.c\n@@ -1 +1 @@\n-x\n+y\n")
	f.Add("commit 123\n\n    message only\n")
	f.Add("@@ stray hunk\n")
	f.Add("")
	f.Add("diff --git a/x b/x\n@@ -1,2 +3,4 @@ sect\n junk\n")
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(input)
		if err != nil {
			return
		}
		text := Format(p)
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse of Format output failed: %v\n%s", err, text)
		}
		if Format(p2) != text {
			t.Fatalf("Format not stable after round trip")
		}
	})
}

// FuzzComputeApply asserts the diff/apply round trip on arbitrary file
// pairs, and that Compute matches the reference implementation.
func FuzzComputeApply(f *testing.F) {
	f.Add("a\nb\nc\n", "a\nX\nc\n")
	f.Add("", "new\n")
	f.Add("only\n", "")
	f.Add("same\n", "same\n")
	f.Add("a\nb\na\n", "a\n")
	f.Fuzz(func(t *testing.T, oldText, newText string) {
		oldText = normalizeFuzz(oldText)
		newText = normalizeFuzz(newText)
		checkAgainstRef(t, oldText, newText)
		fd := Compute("f.c", oldText, newText, 3)
		if fd == nil {
			return
		}
		got, err := Apply(oldText, fd)
		if err != nil {
			t.Fatalf("Apply: %v (old=%q new=%q)", err, oldText, newText)
		}
		if strings.Join(splitLines(got), "\n") != strings.Join(splitLines(newText), "\n") {
			t.Fatalf("round trip mismatch: old=%q new=%q got=%q", oldText, newText, got)
		}
	})
}

func normalizeFuzz(s string) string {
	lines := splitLines(s)
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}
