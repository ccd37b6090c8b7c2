package gitrepo

import (
	"strings"
	"testing"
)

func TestCommitAndLog(t *testing.T) {
	r := NewRepo("org/repo")
	c1 := r.Commit("alice", "2020-01-01", "add file", map[string]string{"a.c": "int x;\n"})
	c2 := r.Commit("bob", "2020-01-02", "edit file", map[string]string{"a.c": "int y;\n"})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	log := r.Log()
	if log[0] != c1 || log[1] != c2 {
		t.Error("log order wrong")
	}
	if got, ok := r.Lookup(c2.Hash); !ok || got != c2 {
		t.Error("lookup failed")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("lookup of unknown hash succeeded")
	}
}

func TestBeforeAfterSnapshots(t *testing.T) {
	r := NewRepo("org/repo")
	r.SeedFile("a.c", "v1\n")
	c := r.Commit("alice", "2020-01-01", "edit", map[string]string{"a.c": "v2\n"})
	if c.Before["a.c"] != "v1\n" || c.After["a.c"] != "v2\n" {
		t.Errorf("snapshots: before=%q after=%q", c.Before["a.c"], c.After["a.c"])
	}
	// Creation: no before entry.
	c2 := r.Commit("alice", "2020-01-02", "create", map[string]string{"b.c": "new\n"})
	if _, ok := c2.Before["b.c"]; ok {
		t.Error("created file has a before snapshot")
	}
	// Deletion: empty content removes the file, no after entry.
	c3 := r.Commit("alice", "2020-01-03", "delete", map[string]string{"b.c": ""})
	if _, ok := c3.After["b.c"]; ok {
		t.Error("deleted file has an after snapshot")
	}
	if _, ok := r.File("b.c"); ok {
		t.Error("deleted file still in head")
	}
}

func TestSeedFileDoesNotLog(t *testing.T) {
	r := NewRepo("org/repo")
	r.SeedFile("a.c", "content\n")
	if r.Len() != 0 {
		t.Error("SeedFile created a commit")
	}
	if v, ok := r.File("a.c"); !ok || v != "content\n" {
		t.Error("seeded file missing from head")
	}
}

func TestHashUniquenessAndShape(t *testing.T) {
	r := NewRepo("org/repo")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		c := r.Commit("a", "d", "same message", map[string]string{"f.c": strings.Repeat("x", i+1)})
		if len(c.Hash) != 40 {
			t.Fatalf("hash %q is not 40 hex chars", c.Hash)
		}
		if seen[c.Hash] {
			t.Fatalf("duplicate hash %q", c.Hash)
		}
		seen[c.Hash] = true
	}
}

func TestCommitPatchLazy(t *testing.T) {
	r := NewRepo("org/repo")
	r.SeedFile("a.c", "line1\nline2\n")
	c := r.Commit("alice", "2020-01-01", "tweak", map[string]string{"a.c": "line1\nchanged\n"})
	p := c.Patch()
	if p == nil || len(p.Files) != 1 {
		t.Fatalf("patch = %+v", p)
	}
	if p.Commit != c.Hash || p.Message != "tweak" || p.Author != "alice" {
		t.Errorf("patch metadata: %q %q %q", p.Commit, p.Message, p.Author)
	}
	if p2 := c.Patch(); p2 != p {
		t.Error("patch not cached")
	}
	added := p.AddedLines()
	if len(added) != 1 || added[0] != "changed" {
		t.Errorf("added = %v", added)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	r1 := NewRepo("org/one")
	r2 := NewRepo("org/two")
	if err := s.Add(r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(r2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(NewRepo("org/one")); err == nil {
		t.Error("duplicate repo accepted")
	}
	if got, ok := s.Repo("org/two"); !ok || got != r2 {
		t.Error("repo lookup failed")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "org/one" {
		t.Errorf("names = %v", names)
	}
	c := r1.Commit("a", "d", "m", map[string]string{"x.c": "1\n"})
	c2 := r2.Commit("a", "d", "m2", map[string]string{"y.c": "2\n"})
	for _, want := range []*Commit{c, c2} {
		if got, ok := s.Lookup(want.Hash); !ok || got != want {
			t.Errorf("store lookup of %s failed", want.Message)
		}
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Error("store lookup of unknown hash succeeded")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRepo("org/repo")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Commit("a", "d", "m", map[string]string{"f.c": "x\n"})
		}
	}()
	for i := 0; i < 100; i++ {
		_ = r.Log()
		_, _ = r.File("f.c")
		_ = r.Len()
	}
	<-done
}
