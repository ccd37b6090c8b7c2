package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ignoreDirective, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	dirs, malformed := parseDirectives(fset, f)
	return fset, dirs, malformed
}

func TestParseDirectives(t *testing.T) {
	src := `package x

func a() {
	//lint:ignore determinism timing is telemetry-only
	_ = 1
	_ = 2 //lint:ignore errcanon,ctxloop two checks one reason
}
`
	_, dirs, malformed := parseSrc(t, src)
	if len(malformed) != 0 {
		t.Fatalf("malformed = %v", malformed)
	}
	if len(dirs) != 2 {
		t.Fatalf("got %d directives, want 2", len(dirs))
	}
	if !dirs[0].checks["determinism"] || dirs[0].reason != "timing is telemetry-only" {
		t.Errorf("directive 0 = %+v", dirs[0])
	}
	if !dirs[1].checks["errcanon"] || !dirs[1].checks["ctxloop"] {
		t.Errorf("directive 1 checks = %v", dirs[1].checks)
	}
}

func TestParseDirectivesMalformed(t *testing.T) {
	for _, src := range []string{
		"package x\n\n//lint:ignore\nfunc a() {}\n",
		"package x\n\n//lint:ignore determinism\nfunc a() {}\n", // no reason
	} {
		_, dirs, malformed := parseSrc(t, src)
		if len(dirs) != 0 {
			t.Errorf("%q: parsed %d directives from malformed input", src, len(dirs))
		}
		if len(malformed) != 1 {
			t.Fatalf("%q: got %d malformed diags, want 1", src, len(malformed))
		}
		d := malformed[0]
		if d.Check != DirectiveCheck || !strings.Contains(d.Message, "malformed directive") {
			t.Errorf("malformed diag = %+v", d)
		}
		if d.Pos.Line != 3 {
			t.Errorf("malformed diag line = %d, want 3", d.Pos.Line)
		}
	}
}

func TestDirectiveLineScope(t *testing.T) {
	d := &ignoreDirective{
		pos:    token.Position{Filename: "x.go", Line: 10},
		checks: map[string]bool{"determinism": true},
	}
	if !d.matches("determinism", 10) {
		t.Error("directive should cover its own line")
	}
	if !d.matches("determinism", 11) {
		t.Error("directive should cover the next line")
	}
	if d.matches("determinism", 12) {
		t.Error("directive must not cover two lines down")
	}
	if d.matches("determinism", 9) {
		t.Error("directive must not cover the line above")
	}
	if d.matches("errcanon", 10) {
		t.Error("directive must not cover other checks")
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   string // verb letters concatenated; "-" for nil
	}{
		{"plain", ""},
		{"%v", "v"},
		{"%d%%: %v", "dv"},
		{"%s %w", "sw"},
		{"%+0.3f", "f"},
		{"%*d", "*d"},
		{"%[1]s", "-"},
		{"100%%", ""},
	}
	for _, c := range cases {
		got := formatVerbs(c.format)
		s := ""
		if got == nil {
			s = "-"
		}
		for _, r := range got {
			s += string(r)
		}
		if s != c.want {
			t.Errorf("formatVerbs(%q) = %q, want %q", c.format, s, c.want)
		}
	}
}

func TestDeterministicPath(t *testing.T) {
	yes := []string{
		"patchdb",
		"patchdb/internal/core/nearestlink",
		"patchdb/internal/core/augment",
		"patchdb/internal/pipeline",
		"patchdb/internal/nvd",
		"patchdb/internal/corpus",
		"patchdb/internal/checkpoint",
		"patchdb/internal/par",
		"patchdb/internal/core",
		"patchdb/internal/ml",
		"patchdb/internal/ml/tree",
		"patchdb/internal/ml/neural",
	}
	no := []string{
		"patchdb/cmd/patchdb-bench",
		"patchdb/internal/telemetry",
		"patchdb/internal/retry",
		"patchdb/internal/experiments",
		"patchdb/internal/corpusx",
		"patchdb/internal/mlx",
		"patchdb/internal/coredump",
	}
	for _, p := range yes {
		if !deterministicPath(p) {
			t.Errorf("deterministicPath(%q) = false, want true", p)
		}
	}
	for _, p := range no {
		if deterministicPath(p) {
			t.Errorf("deterministicPath(%q) = true, want false", p)
		}
	}
}

func TestArtifactWriterPath(t *testing.T) {
	yes := []string{
		"patchdb",
		"patchdb/internal/telemetry",
		"patchdb/internal/store",
		"patchdb/internal/checkpoint",
		"patchdb/cmd/patchdb-build",
		"patchdb/cmd/patchdb-serve",
	}
	no := []string{
		"patchdb/internal/atomicio", // the one sanctioned direct writer
		"patchdb/internal/core/augment",
		"patchdb/internal/nvd",
		"patchdb/internal/experiments",
	}
	for _, p := range yes {
		if !artifactWriterPath(p) {
			t.Errorf("artifactWriterPath(%q) = false, want true", p)
		}
	}
	for _, p := range no {
		if artifactWriterPath(p) {
			t.Errorf("artifactWriterPath(%q) = true, want false", p)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "pkg/file.go", Line: 12, Column: 7},
		Check:   "determinism",
		Message: "wall-clock read",
	}
	want := "pkg/file.go:12:7: determinism: wall-clock read"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(root, "repo") && !strings.Contains(root, "/") {
		t.Errorf("suspicious module root %q", root)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if l.Module != "patchdb" {
		t.Errorf("module = %q, want patchdb", l.Module)
	}
	if _, err := FindModuleRoot("/"); err == nil {
		t.Error("FindModuleRoot(/) should fail")
	}
}

func TestAllAnalyzersNamed(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("incomplete analyzer %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{"determinism", "ctxloop", "errcanon", "telemetrysafe"} {
		if !seen[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
}
