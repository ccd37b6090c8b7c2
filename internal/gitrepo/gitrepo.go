// Package gitrepo implements an in-memory git-like object store: named
// repositories holding ordered commits addressed by SHA-1-style hashes, each
// commit retaining before/after snapshots of the files it touched. It stands
// in for the 313 GitHub repositories of the paper, providing the two
// operations the pipeline requires: enumerating a repository's full commit
// log (`git log`, the "wild") and rolling back to the state just before or
// after a commit (needed by the oversampler to parse complete files).
package gitrepo

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"patchdb/internal/diff"
)

// Commit is one recorded change set.
type Commit struct {
	Hash    string
	Repo    string
	Author  string
	Date    string
	Message string
	// Before and After snapshot only the files the commit touched. A path
	// missing from Before was created; missing from After was deleted.
	Before map[string]string
	After  map[string]string

	patchOnce sync.Once
	patch     *diff.Patch
}

// Patch lazily computes (and caches) the unified diff of the commit.
func (c *Commit) Patch() *diff.Patch {
	c.patchOnce.Do(func() {
		c.patch = diff.ComputePatch(c.Hash, c.Message, c.Before, c.After, 3)
		c.patch.Author = c.Author
		c.patch.Date = c.Date
	})
	return c.patch
}

// Repo is a single repository: an append-only commit log plus head state.
type Repo struct {
	Name string

	mu      sync.RWMutex
	commits []*Commit
	byHash  map[string]*Commit
	head    map[string]string
}

// NewRepo creates an empty repository.
func NewRepo(name string) *Repo {
	return &Repo{
		Name:   name,
		byHash: make(map[string]*Commit),
		head:   make(map[string]string),
	}
}

// File returns the current content of one file.
func (r *Repo) File(path string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.head[path]
	return v, ok
}

// SeedFile writes a file into the head tree without recording a commit.
// Corpus generation uses it to lay down pristine pre-patch files so that the
// first recorded commit of a file is a modification, not a bulk addition.
func (r *Repo) SeedFile(path, content string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.head[path] = content
}

// Commit applies edits (path -> new content; empty string deletes the file)
// and records a commit. It returns the new commit.
func (r *Repo) Commit(author, date, message string, edits map[string]string) *Commit {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Commit{
		Repo:    r.Name,
		Author:  author,
		Date:    date,
		Message: message,
		Before:  make(map[string]string, len(edits)),
		After:   make(map[string]string, len(edits)),
	}
	paths := make([]string, 0, len(edits))
	for p := range edits {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if old, ok := r.head[p]; ok {
			c.Before[p] = old
		}
		if edits[p] == "" {
			delete(r.head, p)
		} else {
			c.After[p] = edits[p]
			r.head[p] = edits[p]
		}
	}
	c.Hash = hashCommit(r.Name, len(r.commits), message, paths)
	r.commits = append(r.commits, c)
	r.byHash[c.Hash] = c
	return c
}

// Log returns the commits in chronological order (`git log --reverse`).
func (r *Repo) Log() []*Commit {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Commit, len(r.commits))
	copy(out, r.commits)
	return out
}

// Lookup resolves a commit hash.
func (r *Repo) Lookup(hash string) (*Commit, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byHash[hash]
	return c, ok
}

// Len returns the number of commits.
func (r *Repo) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.commits)
}

func hashCommit(repo string, index int, message string, paths []string) string {
	h := sha1.New()
	h.Write([]byte(repo))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(index)))
	h.Write([]byte{0})
	h.Write([]byte(message))
	for _, p := range paths {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store is a collection of repositories, the pipeline's view of "GitHub".
type Store struct {
	mu    sync.RWMutex
	repos map[string]*Repo
	order []string
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{repos: make(map[string]*Repo)}
}

// Add registers a repository. Adding a duplicate name is an error.
func (s *Store) Add(r *Repo) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.repos[r.Name]; ok {
		return fmt.Errorf("gitrepo: repository %q already exists", r.Name)
	}
	s.repos[r.Name] = r
	s.order = append(s.order, r.Name)
	return nil
}

// Repo resolves a repository by name.
func (s *Store) Repo(name string) (*Repo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.repos[name]
	return r, ok
}

// Names returns the repository names in insertion order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// Lookup finds a commit by hash across all repositories.
func (s *Store) Lookup(hash string) (*Commit, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, name := range s.order {
		if c, ok := s.repos[name].Lookup(hash); ok {
			return c, true
		}
	}
	return nil, false
}
