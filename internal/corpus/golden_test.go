package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"slices"
	"strconv"
	"testing"
)

// goldenCorpus pins the SHA-256 of a generated corpus per seed: every
// rendered line of every file, message, date and CVE id, and the order in
// which the generator draws from its RNG. A change to any of them changes
// the corpora every experiment and benchmark is computed from, so it must
// be made on purpose, with these constants updated in the same change.
var goldenCorpus = []struct {
	seed   int64
	digest string
}{
	{1, "006143613d1c38b1d34096d2b38fa9502ce412d7d77ec6d975ac86d5b4660374"},
	{7, "a68a6e0c66e963c45f983da2d76e268b1ae9938c22efd4e06d889888622913c7"},
}

// TestGeneratorGolden regenerates the corpus the way Build does (NVD, then
// non-security, then a wild pool, from one generator) and compares its
// digest with goldenCorpus.
func TestGeneratorGolden(t *testing.T) {
	for _, gc := range goldenCorpus {
		g := NewGenerator(Config{Seed: gc.seed})
		h := sha256.New()
		for _, set := range [][]*LabeledCommit{g.GenerateNVD(50), g.GenerateNonSecurity(50), g.GenerateWild(500)} {
			for _, lc := range set {
				hashCommit(h, lc)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != gc.digest {
			t.Errorf("seed %d: corpus digest %s, want %s", gc.seed, got, gc.digest)
		}
	}
}

// hashCommit writes every generated field of lc to h, each field
// length-prefixed so no two corpora share an encoding.
func hashCommit(h hash.Hash, lc *LabeledCommit) {
	field := func(s string) {
		h.Write([]byte(strconv.Itoa(len(s)) + ":" + s))
	}
	c := lc.Commit
	field(c.Hash)
	field(c.Repo)
	field(c.Author)
	field(c.Message)
	field(c.Date)
	field(lc.CVE)
	field(strconv.FormatBool(lc.Security) + "/" + strconv.Itoa(int(lc.Pattern)) + "/" + strconv.Itoa(int(lc.NonSec)))
	for _, files := range []map[string]string{c.Before, c.After} {
		paths := make([]string, 0, len(files))
		for p := range files {
			paths = append(paths, p)
		}
		slices.Sort(paths)
		field(strconv.Itoa(len(paths)))
		for _, p := range paths {
			field(p)
			field(files[p])
		}
	}
}
