// Package diff implements parsing, generation, and serialization of git-style
// patches (commits with unified diffs). It is the foundation the rest of the
// pipeline builds on: the NVD crawler downloads .patch files in this format,
// the feature extractor walks hunks, and the oversampler re-diffs modified
// file versions to merge extra edits into a patch.
package diff

import (
	"fmt"
	"path"
	"strconv"
	"strings"
)

// LineKind classifies a single line inside a hunk.
type LineKind int

const (
	// Context lines are unchanged lines surrounding a modification.
	Context LineKind = iota + 1
	// Removed lines exist only in the pre-patch version ("-" prefix).
	Removed
	// Added lines exist only in the post-patch version ("+" prefix).
	Added
)

// String returns the unified-diff prefix for the line kind.
func (k LineKind) String() string {
	switch k {
	case Context:
		return " "
	case Removed:
		return "-"
	case Added:
		return "+"
	default:
		return "?"
	}
}

// Line is one line of a hunk body.
type Line struct {
	Kind LineKind
	Text string // without the leading marker, without trailing newline
}

// Hunk is one consecutive region of changes plus its surrounding context.
type Hunk struct {
	OldStart int // 1-based first line in the old file covered by the hunk
	OldLines int
	NewStart int
	NewLines int
	Section  string // optional function context after the second @@
	Lines    []Line
}

// AddedLines returns the text of every added line in the hunk.
func (h *Hunk) AddedLines() []string { return h.linesOf(Added) }

// RemovedLines returns the text of every removed line in the hunk.
func (h *Hunk) RemovedLines() []string { return h.linesOf(Removed) }

func (h *Hunk) linesOf(kind LineKind) []string {
	var out []string
	for _, ln := range h.Lines {
		if ln.Kind == kind {
			out = append(out, ln.Text)
		}
	}
	return out
}

// FileDiff is the set of hunks for a single file in a patch.
type FileDiff struct {
	OldPath string // path on the "a/" side
	NewPath string // path on the "b/" side
	Hunks   []*Hunk
}

// IsCFamily reports whether the file is a C/C++ source or header file
// (.c, .cc, .cpp, .cxx, .h, .hpp, .hh), the subset PatchDB keeps.
func (f *FileDiff) IsCFamily() bool {
	p := f.NewPath
	if p == "" || p == "/dev/null" {
		p = f.OldPath
	}
	switch strings.ToLower(path.Ext(p)) {
	case ".c", ".cc", ".cpp", ".cxx", ".h", ".hpp", ".hh":
		return true
	}
	return false
}

// Patch is a parsed git commit patch: metadata plus per-file diffs.
type Patch struct {
	Commit  string // 40-char hash (or shorter synthetic id)
	Author  string
	Date    string
	Message string
	Files   []*FileDiff
}

// Hunks returns all hunks across all files.
func (p *Patch) HunkList() []*Hunk {
	var out []*Hunk
	for _, f := range p.Files {
		out = append(out, f.Hunks...)
	}
	return out
}

// AddedLines returns every added line across the whole patch.
func (p *Patch) AddedLines() []string {
	var out []string
	for _, h := range p.HunkList() {
		out = append(out, h.AddedLines()...)
	}
	return out
}

// RemovedLines returns every removed line across the whole patch.
func (p *Patch) RemovedLines() []string {
	var out []string
	for _, h := range p.HunkList() {
		out = append(out, h.RemovedLines()...)
	}
	return out
}

// StripNonCFamily returns a copy of the patch with diffs of non-C/C++ files
// removed, mirroring the paper's cleaning step (changelogs, .sh, .phpt, ...
// do not play a role in fixing vulnerabilities).
func (p *Patch) StripNonCFamily() *Patch {
	out := &Patch{Commit: p.Commit, Author: p.Author, Date: p.Date, Message: p.Message}
	for _, f := range p.Files {
		if f.IsCFamily() {
			out.Files = append(out.Files, f)
		}
	}
	return out
}

// ParseError describes a malformed patch input.
type ParseError struct {
	LineNo int
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("patch parse error at line %d: %s", e.LineNo, e.Reason)
}

// Parse parses a git-format patch (as produced by `git show`, GitHub's
// .patch endpoint, or Format). It tolerates missing commit headers so raw
// unified diffs also parse.
func Parse(text string) (*Patch, error) {
	lines := strings.Split(text, "\n")
	// A trailing newline yields one empty final element; it is an artifact
	// of splitting, not an empty context line.
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	p := &Patch{}
	var file *FileDiff
	var hunk *Hunk
	var inMessage bool
	var msg []string

	flushHunk := func() {
		if hunk != nil && file != nil {
			file.Hunks = append(file.Hunks, hunk)
		}
		hunk = nil
	}
	flushFile := func() {
		flushHunk()
		if file != nil {
			p.Files = append(p.Files, file)
		}
		file = nil
	}

	for i, raw := range lines {
		switch {
		case strings.HasPrefix(raw, "commit "):
			p.Commit = strings.TrimSpace(strings.TrimPrefix(raw, "commit "))
			inMessage = true
		case strings.HasPrefix(raw, "From ") && p.Commit == "" && file == nil:
			// GitHub .patch header: "From <hash> Mon Sep 17 00:00:00 2001"
			fields := strings.Fields(raw)
			if len(fields) >= 2 && len(fields[1]) >= 7 {
				p.Commit = fields[1]
			}
			inMessage = true
		case strings.HasPrefix(raw, "Author:") || strings.HasPrefix(raw, "From:"):
			p.Author = strings.TrimSpace(raw[strings.Index(raw, ":")+1:])
		case strings.HasPrefix(raw, "Date:"):
			p.Date = strings.TrimSpace(strings.TrimPrefix(raw, "Date:"))
		case strings.HasPrefix(raw, "diff --git "):
			flushFile()
			inMessage = false
			oldPath, newPath, err := parseDiffGitLine(raw)
			if err != nil {
				return nil, &ParseError{LineNo: i + 1, Reason: err.Error()}
			}
			file = &FileDiff{OldPath: oldPath, NewPath: newPath}
		case strings.HasPrefix(raw, "index ") || strings.HasPrefix(raw, "new file mode") ||
			strings.HasPrefix(raw, "deleted file mode") || strings.HasPrefix(raw, "old mode") ||
			strings.HasPrefix(raw, "new mode") || strings.HasPrefix(raw, "similarity index") ||
			strings.HasPrefix(raw, "rename from") || strings.HasPrefix(raw, "rename to"):
			// metadata lines between "diff --git" and the hunks; ignored
		case strings.HasPrefix(raw, "--- "):
			if file == nil {
				// A bare unified diff without "diff --git": synthesize the file.
				file = &FileDiff{OldPath: normalizePath(raw[4:], "a/")}
			} else {
				file.OldPath = normalizePath(raw[4:], "a/")
			}
		case strings.HasPrefix(raw, "+++ "):
			if file == nil {
				return nil, &ParseError{LineNo: i + 1, Reason: "+++ outside a file diff"}
			}
			file.NewPath = normalizePath(raw[4:], "b/")
		case strings.HasPrefix(raw, "@@ "):
			if file == nil {
				return nil, &ParseError{LineNo: i + 1, Reason: "hunk header outside a file diff"}
			}
			flushHunk()
			h, err := parseHunkHeader(raw)
			if err != nil {
				return nil, &ParseError{LineNo: i + 1, Reason: err.Error()}
			}
			hunk = h
		case hunk != nil && strings.HasPrefix(raw, "+"):
			hunk.Lines = append(hunk.Lines, Line{Kind: Added, Text: raw[1:]})
		case hunk != nil && strings.HasPrefix(raw, "-"):
			hunk.Lines = append(hunk.Lines, Line{Kind: Removed, Text: raw[1:]})
		case hunk != nil && strings.HasPrefix(raw, " "):
			hunk.Lines = append(hunk.Lines, Line{Kind: Context, Text: raw[1:]})
		case hunk != nil && raw == "":
			// Some tools emit empty context lines without the leading space.
			hunk.Lines = append(hunk.Lines, Line{Kind: Context, Text: ""})
		case hunk != nil && raw == `\ No newline at end of file`:
			// ignored marker
		case inMessage:
			// One indent comes off: git log's four spaces or a tab, not
			// both, so a message line that starts with a tab keeps it
			// through Format (which indents with four spaces) and Parse.
			line, ok := strings.CutPrefix(raw, "    ")
			if !ok {
				line = strings.TrimPrefix(raw, "\t")
			}
			msg = append(msg, line)
		}
	}
	flushFile()
	p.Message = strings.TrimSpace(strings.Join(msg, "\n"))
	if len(p.Files) == 0 && p.Commit == "" {
		return nil, &ParseError{LineNo: 1, Reason: "input contains no commit header and no file diffs"}
	}
	return p, nil
}

func normalizePath(s, prefix string) string {
	// Git appends "\t<timestamp>" to ---/+++ paths; cut there, then trim
	// residual whitespace so the path is stable under re-serialization.
	if tab := strings.IndexByte(s, '\t'); tab >= 0 {
		s = s[:tab]
	}
	s = strings.TrimSpace(s)
	if s == "/dev/null" {
		return s
	}
	return strings.TrimPrefix(s, prefix)
}

func parseDiffGitLine(raw string) (oldPath, newPath string, err error) {
	rest := strings.TrimPrefix(raw, "diff --git ")
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", fmt.Errorf("malformed diff --git line %q", raw)
	}
	return strings.TrimPrefix(fields[0], "a/"), strings.TrimPrefix(fields[1], "b/"), nil
}

func parseHunkHeader(raw string) (*Hunk, error) {
	// @@ -l,s +l,s @@ optional section
	end := strings.Index(raw[3:], " @@")
	if end < 0 {
		return nil, fmt.Errorf("malformed hunk header %q", raw)
	}
	ranges := raw[3 : 3+end]
	section := ""
	if len(raw) > 3+end+3 {
		section = strings.TrimSpace(raw[3+end+3:])
	}
	parts := strings.Fields(ranges)
	if len(parts) != 2 || !strings.HasPrefix(parts[0], "-") || !strings.HasPrefix(parts[1], "+") {
		return nil, fmt.Errorf("malformed hunk ranges %q", ranges)
	}
	oldStart, oldLines, err := parseRange(parts[0][1:])
	if err != nil {
		return nil, err
	}
	newStart, newLines, err := parseRange(parts[1][1:])
	if err != nil {
		return nil, err
	}
	return &Hunk{
		OldStart: oldStart, OldLines: oldLines,
		NewStart: newStart, NewLines: newLines,
		Section: section,
	}, nil
}

func parseRange(s string) (start, count int, err error) {
	count = 1
	if comma := strings.IndexByte(s, ','); comma >= 0 {
		count, err = strconv.Atoi(s[comma+1:])
		if err != nil {
			return 0, 0, fmt.Errorf("malformed hunk range %q", s)
		}
		s = s[:comma]
	}
	start, err = strconv.Atoi(s)
	if err != nil {
		return 0, 0, fmt.Errorf("malformed hunk range %q", s)
	}
	return start, count, nil
}

// Format renders the patch back to git patch text. Parse(Format(p)) is
// structurally lossless for the fields Parse retains.
func Format(p *Patch) string {
	var b strings.Builder
	// The commit line anchors message parsing on re-parse, so emit it
	// whenever any header-dependent content follows, even with an empty
	// hash.
	if p.Commit != "" || p.Message != "" || p.Author != "" || p.Date != "" {
		fmt.Fprintf(&b, "commit %s\n", p.Commit)
	}
	if p.Author != "" {
		fmt.Fprintf(&b, "Author: %s\n", p.Author)
	}
	if p.Date != "" {
		fmt.Fprintf(&b, "Date: %s\n", p.Date)
	}
	if p.Message != "" {
		b.WriteString("\n")
		for _, ln := range strings.Split(p.Message, "\n") {
			b.WriteString("    " + ln + "\n")
		}
		b.WriteString("\n")
	}
	for _, f := range p.Files {
		fmt.Fprintf(&b, "diff --git a/%s b/%s\n", f.OldPath, f.NewPath)
		fmt.Fprintf(&b, "--- a/%s\n", f.OldPath)
		fmt.Fprintf(&b, "+++ b/%s\n", f.NewPath)
		for _, h := range f.Hunks {
			fmt.Fprintf(&b, "@@ -%s +%s @@", formatRange(h.OldStart, h.OldLines), formatRange(h.NewStart, h.NewLines))
			if h.Section != "" {
				b.WriteString(" " + h.Section)
			}
			b.WriteString("\n")
			for _, ln := range h.Lines {
				b.WriteString(ln.Kind.String() + ln.Text + "\n")
			}
		}
	}
	return b.String()
}

func formatRange(start, count int) string {
	if count == 1 {
		return strconv.Itoa(start)
	}
	return fmt.Sprintf("%d,%d", start, count)
}
