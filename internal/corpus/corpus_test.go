package corpus

import (
	"strings"
	"testing"

	"patchdb/internal/cast"
	"patchdb/internal/diff"
)

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(Config{Seed: 5})
	g2 := NewGenerator(Config{Seed: 5})
	a := g1.GenerateWild(50)
	b := g2.GenerateWild(50)
	for i := range a {
		if a[i].Commit.Hash != b[i].Commit.Hash || a[i].Security != b[i].Security {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	g3 := NewGenerator(Config{Seed: 6})
	c := g3.GenerateWild(50)
	same := 0
	for i := range a {
		if a[i].Commit.Hash == c[i].Commit.Hash {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestSecurityRate(t *testing.T) {
	g := NewGenerator(Config{Seed: 7})
	wild := g.GenerateWild(4000)
	sec := 0
	for _, lc := range wild {
		if lc.Security {
			sec++
		}
	}
	rate := float64(sec) / float64(len(wild))
	if rate < 0.05 || rate > 0.12 {
		t.Errorf("wild security rate = %.3f, want within the paper's 6-10%% band (±)", rate)
	}
}

func TestLabelsConsistent(t *testing.T) {
	g := NewGenerator(Config{Seed: 8})
	for _, lc := range g.GenerateWild(200) {
		if lc.Security && lc.Pattern == 0 {
			t.Error("security commit without pattern")
		}
		if !lc.Security && lc.NonSec == 0 {
			t.Error("non-security commit without class")
		}
		if lc.Security && lc.NonSec != 0 {
			t.Error("security commit carries a non-security class")
		}
	}
}

func TestNVDCommitsHaveCVEs(t *testing.T) {
	g := NewGenerator(Config{Seed: 9})
	for _, lc := range g.GenerateNVD(50) {
		if !lc.Security {
			t.Error("NVD commit not security")
		}
		if !strings.HasPrefix(lc.CVE, "CVE-") {
			t.Errorf("CVE id = %q", lc.CVE)
		}
	}
}

func TestPatchesNonEmptyAndParseable(t *testing.T) {
	g := NewGenerator(Config{Seed: 10})
	all := append(g.GenerateNVD(40), g.GenerateWild(150)...)
	for _, lc := range all {
		p := lc.Commit.Patch()
		if len(p.Files) == 0 {
			t.Fatalf("empty patch for %s commit %q (%v/%v)",
				label(lc), lc.Commit.Message, lc.Pattern, lc.NonSec)
		}
		// Round-trip through the text format.
		if _, err := diff.Parse(diff.Format(p)); err != nil {
			t.Fatalf("patch of %s does not re-parse: %v", lc.Commit.Hash, err)
		}
	}
}

func label(lc *LabeledCommit) string {
	if lc.Security {
		return "security"
	}
	return "non-security"
}

func TestGeneratedFilesParse(t *testing.T) {
	g := NewGenerator(Config{Seed: 11})
	for _, lc := range g.GenerateWild(150) {
		for path, content := range lc.Commit.After {
			if _, err := cast.Parse(content); err != nil {
				t.Fatalf("generated file %s does not parse: %v\n%s", path, err, content)
			}
		}
		for path, content := range lc.Commit.Before {
			if _, err := cast.Parse(content); err != nil {
				t.Fatalf("pre-patch file %s does not parse: %v", path, err)
			}
		}
	}
}

func TestMixInfluencesDistribution(t *testing.T) {
	var onlyRedesign Mix
	onlyRedesign[PatternRedesign-1] = 1
	g := NewGenerator(Config{Seed: 12})
	for range 30 {
		if lc := g.SecurityCommit(onlyRedesign); lc.Pattern != PatternRedesign {
			t.Fatalf("pattern = %v with redesign-only mix", lc.Pattern)
		}
	}
}

func TestEveryPatternProducesDistinctEdit(t *testing.T) {
	g := NewGenerator(Config{Seed: 13})
	for p := Pattern(1); int(p) <= NumPatterns; p++ {
		lc := g.SecurityCommitOfPattern(p)
		if lc.Pattern != p {
			t.Errorf("pattern label = %v, want %v", lc.Pattern, p)
		}
		patch := lc.Commit.Patch()
		if len(patch.Files) == 0 {
			t.Errorf("pattern %v produced an empty patch", p)
		}
	}
}

func TestEveryNonSecClassProducesEdit(t *testing.T) {
	g := NewGenerator(Config{Seed: 14})
	for c := NonSecClass(1); int(c) <= NumNonSecClasses; c++ {
		lc := g.nonSecurityCommitOfClass(c)
		if lc.NonSec != c {
			t.Errorf("class label = %v, want %v", lc.NonSec, c)
		}
		if len(lc.Commit.Patch().Files) == 0 {
			t.Errorf("class %v produced an empty patch", c)
		}
	}
}

func TestPatternStrings(t *testing.T) {
	for p := Pattern(1); int(p) <= NumPatterns; p++ {
		if p.String() == "unknown" {
			t.Errorf("pattern %d unnamed", p)
		}
	}
	if Pattern(0).String() != "unknown" {
		t.Error("invalid pattern named")
	}
	for c := NonSecClass(1); int(c) <= NumNonSecClasses; c++ {
		if c.String() == "unknown" {
			t.Errorf("class %d unnamed", c)
		}
	}
}

func TestCommitMessagesMostlyNeutral(t *testing.T) {
	g := NewGenerator(Config{Seed: 15})
	security := g.GenerateNVD(300)
	explicit := 0
	for _, lc := range security {
		msg := strings.ToLower(lc.Commit.Message)
		if strings.Contains(msg, "overflow") || strings.Contains(msg, "cve") ||
			strings.Contains(msg, "null pointer") || strings.Contains(msg, "use-after-free") ||
			strings.Contains(msg, "out-of-bounds") || strings.Contains(msg, "validate input") {
			explicit++
		}
	}
	frac := float64(explicit) / float64(len(security))
	// The paper reports 61% of security patches do NOT mention security.
	if frac < 0.2 || frac > 0.6 {
		t.Errorf("explicit-security message fraction = %.2f, want ~0.39", frac)
	}
}

func TestStoreHoldsAllCommits(t *testing.T) {
	g := NewGenerator(Config{Seed: 16})
	wild := g.GenerateWild(100)
	for _, lc := range wild {
		if _, ok := g.Store().Lookup(lc.Commit.Hash); !ok {
			t.Fatalf("commit %s missing from store", lc.Commit.Hash)
		}
	}
}
