package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// sentinelBytes is the content of the file each manifest test plants next
// to the journal directory; no manifest may get it deleted or changed.
var sentinelBytes = []byte("not the journal's\n")

// plantJournal makes root/journal holding manifest and a valid crawl
// payload, plus the sibling sentinel root/sentinel.json. It returns the
// journal directory and the sentinel's path.
func plantJournal(t *testing.T, manifest []byte) (dir, sentinel string) {
	t.Helper()
	root := t.TempDir()
	dir = filepath.Join(root, "journal")
	sentinel = filepath.Join(root, "sentinel.json")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string][]byte{
		sentinel:                               sentinelBytes,
		filepath.Join(dir, manifestName):       manifest,
		filepath.Join(dir, stageFile("crawl")): []byte("{}"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, sentinel
}

func checkSentinel(t *testing.T, sentinel string) {
	t.Helper()
	data, err := os.ReadFile(sentinel)
	if err != nil {
		t.Fatalf("sentinel next to the journal: %v", err)
	}
	if !bytes.Equal(data, sentinelBytes) {
		t.Fatalf("sentinel next to the journal changed: %q", data)
	}
}

// TestOpenRejectsForeignPayloadPath plants a manifest whose entry names a
// file outside the journal directory. Neither a fresh Open (which would
// delete it while truncating) nor a resuming one (which would read it on
// Load) may accept it.
func TestOpenRejectsForeignPayloadPath(t *testing.T) {
	for _, m := range []string{
		`{"format_version":1,"fingerprint":"fp","seed":7,"stages":[{"name":"crawl","file":"../sentinel.json"}]}`,
		`{"format_version":1,"fingerprint":"fp","seed":7,"stages":[{"name":"/../../sentinel","file":"stage-/../../sentinel.json"}]}`,
		`{"format_version":1,"fingerprint":"fp","seed":7,"stages":[{"name":"crawl","file":"stage-seed.json"}]}`,
	} {
		for _, resume := range []bool{false, true} {
			dir, sentinel := plantJournal(t, []byte(m))
			_, err := Open(dir, Options{Seed: 7, Fingerprint: "fp", Resume: resume})
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("resume=%v, manifest %s: err = %v, want ErrCorrupt", resume, m, err)
			}
			checkSentinel(t, sentinel)
		}
	}
}

// FuzzOpenManifest opens arbitrary manifest bytes, resuming and fresh. The
// sentinel next to the journal directory must survive both, every stage a
// resuming Open accepts must name the payload file Write would have
// written for it, and a fresh Open that succeeds must have removed the old
// manifest.
func FuzzOpenManifest(f *testing.F) {
	for _, seed := range []string{
		`{"format_version":1,"fingerprint":"fp","seed":7,"stages":[{"name":"crawl","file":"stage-crawl.json","sha256":"","bytes":2}]}`,
		`{"format_version":1,"fingerprint":"fp","seed":7,"stages":[]}`,
		`{"format_version":1,"fingerprint":"fp","seed":7,"stages":[{"name":"crawl","file":"../sentinel.json"}]}`,
		`{"format_version":1,"fingerprint":"fp","seed":7,"stages":[{"name":"/../../sentinel","file":"stage-/../../sentinel.json"}]}`,
		`{"format_version":1,"fingerprint":"fp","seed":7,"stages":[{"name":"a","file":"stage-a.json"},{"name":"a","file":"stage-a.json"}]}`,
		`{"format_version":2,"fingerprint":"fp","seed":7}`,
		`{"stages":null}`,
		`{"stages":[{}]}`,
		`[]`,
		`null`,
		``,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir, sentinel := plantJournal(t, manifest)
		j, err := Open(dir, Options{Seed: 7, Fingerprint: "fp", Resume: true})
		checkSentinel(t, sentinel)
		if err == nil {
			for _, st := range j.man.Stages {
				if st.File != stageFile(st.Name) {
					t.Fatalf("resume accepted stage %q with payload file %q", st.Name, st.File)
				}
			}
		}
		_, err = Open(dir, Options{Seed: 7, Fingerprint: "fp"})
		checkSentinel(t, sentinel)
		if _, statErr := os.Stat(filepath.Join(dir, manifestName)); err == nil && statErr == nil {
			t.Fatal("fresh Open succeeded but left the old manifest in place")
		}
	})
}
