// Package checkpoint is the crash-safe build journal behind resumable
// PatchDB construction. A Journal lives in one directory and records the
// builder's state at every stage boundary: each completed stage is one JSON
// payload file written atomically (internal/atomicio: temp+fsync+rename),
// plus a manifest naming the completed stages in order with the SHA-256 of
// each payload, the journal format version, the build seed, and a
// fingerprint of every output-affecting config field.
//
// The crash model: a kill can land before a payload write, between the
// payload write and the manifest update, or after both. Because both files
// are written atomically, the journal is always one of two consistent
// states — the stage is durably completed (payload + manifest entry) or it
// is not (at worst an orphan payload file the next run overwrites). Nothing
// a crash produces can be half-trusted.
//
// Resume semantics: opening with Resume validates the manifest's format
// version, seed, and config fingerprint against the current build and
// refuses a mismatch (ErrConfigMismatch) — resuming under a different
// configuration would silently weld two incompatible builds together.
// Payload integrity is verified against the manifest hash on every Load
// (ErrCorrupt on mismatch). Opening without Resume truncates any existing
// journal so a fresh build never inherits stale stages.
//
// For chaos testing, a Journal carries an optional deterministic Fault that
// injects a crash (ErrInjectedCrash) immediately before or after one named
// stage's write — the same inject-at-a-seam discipline as internal/faults,
// driving the kill-and-resume matrix in internal/experiments/resumebench.
package checkpoint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"patchdb/internal/atomicio"
	"patchdb/internal/telemetry"
)

// FormatVersion identifies the journal layout; a bump invalidates old
// journals (resume refuses them with ErrConfigMismatch detail).
const FormatVersion = 1

// manifestName is the journal's manifest file inside the checkpoint dir.
const manifestName = "MANIFEST.json"

// Canonical journal errors, matched with errors.Is.
var (
	// ErrConfigMismatch reports a resume attempt against a journal written
	// by a build with a different config fingerprint, seed, or format
	// version.
	ErrConfigMismatch = errors.New("checkpoint: journal does not match this build config")
	// ErrCorrupt reports a payload whose bytes no longer hash to the digest
	// the manifest recorded.
	ErrCorrupt = errors.New("checkpoint: corrupt journal")
	// ErrInjectedCrash is the deterministic crash the chaos Fault injects at
	// a stage boundary; it stands in for a SIGKILL in the resume matrix.
	ErrInjectedCrash = errors.New("checkpoint: injected crash")
)

// The registry metric families the journal emits (into the telemetry hub
// carried by the operation's context).
const (
	// MetricWrites counts stage checkpoints written.
	MetricWrites = "checkpoint_writes_total"
	// MetricWriteBytes counts payload bytes written across checkpoints.
	MetricWriteBytes = "checkpoint_write_bytes_total"
	// MetricLoads counts stage payloads loaded on resume.
	MetricLoads = "checkpoint_loads_total"
	// MetricSkips counts stages skipped because the journal already holds
	// their output.
	MetricSkips = "checkpoint_stages_skipped_total"
)

// FaultMode selects where an injected crash lands relative to a stage's
// checkpoint write.
type FaultMode int

const (
	// FaultAfterWrite crashes after the stage checkpoint is durably
	// journaled: resume must skip the stage.
	FaultAfterWrite FaultMode = iota + 1
	// FaultBeforeWrite crashes after the stage's work but before its
	// checkpoint write: the stage's output is lost and resume must re-run
	// it.
	FaultBeforeWrite
)

// String names the mode for harness reports.
func (m FaultMode) String() string {
	switch m {
	case FaultAfterWrite:
		return "after-write"
	case FaultBeforeWrite:
		return "before-write"
	default:
		return fmt.Sprintf("FaultMode(%d)", int(m))
	}
}

// Fault is a deterministic crash injected at one stage boundary.
type Fault struct {
	// Stage names the checkpoint stage whose write the crash brackets.
	Stage string
	// Mode places the crash before or after the journal write.
	Mode FaultMode
}

// stageEntry is one completed stage in the manifest.
type stageEntry struct {
	// Name is the stage identifier (e.g. "crawl", "augment-2").
	Name string `json:"name"`
	// File is the payload filename inside the journal directory.
	File string `json:"file"`
	// SHA256 is the hex digest of the payload bytes.
	SHA256 string `json:"sha256"`
	// Bytes is the payload size.
	Bytes int `json:"bytes"`
}

// manifest is the journal's root document.
type manifest struct {
	FormatVersion int    `json:"format_version"`
	Fingerprint   string `json:"fingerprint"`
	Seed          int64  `json:"seed"`
	// Stages lists completed stages in completion order.
	Stages []stageEntry `json:"stages"`
}

// Options configure Open.
type Options struct {
	// Seed is the build seed recorded in (and checked against) the manifest.
	Seed int64
	// Fingerprint is the hex digest of the build's output-affecting config
	// (see Fingerprint); resume refuses a journal with a different one.
	Fingerprint string
	// Resume keeps an existing journal and validates it; false truncates.
	Resume bool
	// Fault, when non-nil, injects a deterministic crash at one stage
	// boundary (chaos testing).
	Fault *Fault
}

// Journal is one build's checkpoint state rooted in a directory. Methods are
// called from the single builder goroutine; a Journal is not safe for
// concurrent use.
type Journal struct {
	dir   string
	man   manifest
	fault *Fault
}

// Fingerprint canonicalizes v as JSON and returns the hex SHA-256 — the
// config identity a journal is bound to.
func Fingerprint(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: fingerprint: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Open prepares the journal directory (creating it if needed). With
// o.Resume an existing manifest is validated against the format version,
// seed, and fingerprint — a mismatch is refused with ErrConfigMismatch — and
// its completed stages become loadable. Without o.Resume any existing
// journal is truncated: the manifest and every payload it names are removed
// so a fresh build cannot observe stale state.
func Open(dir string, o Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	j := &Journal{
		dir:   dir,
		man:   manifest{FormatVersion: FormatVersion, Fingerprint: o.Fingerprint, Seed: o.Seed},
		fault: o.Fault,
	}
	old, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if old == nil {
		return j, nil // nothing journaled yet; fresh either way
	}
	if !o.Resume {
		if err := truncate(dir, old); err != nil {
			return nil, err
		}
		return j, nil
	}
	switch {
	case old.FormatVersion != FormatVersion:
		return nil, fmt.Errorf("%w: journal format v%d, this build writes v%d",
			ErrConfigMismatch, old.FormatVersion, FormatVersion)
	case old.Seed != o.Seed:
		return nil, fmt.Errorf("%w: journal seed %d, build seed %d",
			ErrConfigMismatch, old.Seed, o.Seed)
	case old.Fingerprint != o.Fingerprint:
		return nil, fmt.Errorf("%w: journal fingerprint %.12s…, build fingerprint %.12s…",
			ErrConfigMismatch, old.Fingerprint, o.Fingerprint)
	}
	j.man = *old
	return j, nil
}

// readManifest loads the manifest, returning (nil, nil) when none exists.
// A manifest that does not parse, or that names a payload file Write would
// not have written, is ErrCorrupt.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest does not parse: %w", ErrCorrupt, err)
	}
	for _, st := range m.Stages {
		// Write names every payload stageFile(Name), inside the journal
		// directory. Any other name would point truncate's delete and
		// Load's read at a file the journal does not own.
		if st.File != stageFile(st.Name) || filepath.Base(st.File) != st.File {
			return nil, fmt.Errorf("%w: stage %q names payload file %q", ErrCorrupt, st.Name, st.File)
		}
	}
	return &m, nil
}

// truncate removes a previous journal: every payload the old manifest names,
// then the manifest itself (last, so a crash mid-truncate still leaves a
// manifest whose next truncation finishes the job).
func truncate(dir string, old *manifest) error {
	for _, st := range old.Stages {
		if err := os.Remove(filepath.Join(dir, st.File)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checkpoint: truncate: %w", err)
		}
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("checkpoint: truncate: %w", err)
	}
	return nil
}

// Stages returns the completed stage names in completion order.
func (j *Journal) Stages() []string {
	out := make([]string, len(j.man.Stages))
	for i, st := range j.man.Stages {
		out[i] = st.Name
	}
	return out
}

// LastCompleted returns the most recently completed stage name, or "".
func (j *Journal) LastCompleted() string {
	if n := len(j.man.Stages); n > 0 {
		return j.man.Stages[n-1].Name
	}
	return ""
}

// Completed reports whether a stage checkpoint is durably journaled.
func (j *Journal) Completed(stage string) bool {
	return j.entry(stage) != nil
}

func (j *Journal) entry(stage string) *stageEntry {
	for i := range j.man.Stages {
		if j.man.Stages[i].Name == stage {
			return &j.man.Stages[i]
		}
	}
	return nil
}

// stageFile names a stage's payload file.
func stageFile(stage string) string { return "stage-" + stage + ".json" }

// Write journals v as the completed stage's payload: the payload file lands
// atomically first, then the manifest entry (name, digest, size) — the
// commit point. ctx carries the telemetry hub for the write span and
// counters. A configured Fault on this stage returns ErrInjectedCrash
// before (FaultBeforeWrite) or after (FaultAfterWrite) the journal mutation.
func (j *Journal) Write(ctx context.Context, stage string, v any) error {
	if j.fault != nil && j.fault.Stage == stage && j.fault.Mode == FaultBeforeWrite {
		return fmt.Errorf("%w: before journaling stage %q", ErrInjectedCrash, stage)
	}
	_, span := telemetry.Start(ctx, "checkpoint.write")
	defer span.End()
	span.SetAttr("stage", stage)
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encode stage %q: %w", stage, err)
	}
	file := stageFile(stage)
	if err := atomicio.WriteFile(filepath.Join(j.dir, file), data); err != nil {
		return fmt.Errorf("checkpoint: stage %q: %w", stage, err)
	}
	sum := sha256.Sum256(data)
	entry := stageEntry{Name: stage, File: file, SHA256: hex.EncodeToString(sum[:]), Bytes: len(data)}
	if prev := j.entry(stage); prev != nil {
		*prev = entry // a re-run stage replaces its old record
	} else {
		j.man.Stages = append(j.man.Stages, entry)
	}
	if err := j.writeManifest(); err != nil {
		return fmt.Errorf("checkpoint: stage %q: %w", stage, err)
	}
	span.SetAttr("bytes", len(data))
	hub := telemetry.HubFromContext(ctx)
	hub.Registry.Counter(MetricWrites, telemetry.L("stage", stage)).Inc()
	hub.Registry.Counter(MetricWriteBytes).Add(float64(len(data)))
	if j.fault != nil && j.fault.Stage == stage && j.fault.Mode == FaultAfterWrite {
		return fmt.Errorf("%w: after journaling stage %q", ErrInjectedCrash, stage)
	}
	return nil
}

func (j *Journal) writeManifest() error {
	data, err := json.MarshalIndent(j.man, "", " ")
	if err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	return atomicio.WriteFile(filepath.Join(j.dir, manifestName), append(data, '\n'))
}

// Load reads a completed stage's payload into v, verifying the bytes
// against the digest the manifest recorded (ErrCorrupt on mismatch).
func (j *Journal) Load(ctx context.Context, stage string, v any) error {
	entry := j.entry(stage)
	if entry == nil {
		return fmt.Errorf("checkpoint: stage %q is not journaled", stage)
	}
	_, span := telemetry.Start(ctx, "checkpoint.load")
	defer span.End()
	span.SetAttr("stage", stage)
	data, err := os.ReadFile(filepath.Join(j.dir, entry.File))
	if err != nil {
		return fmt.Errorf("checkpoint: load stage %q: %w", stage, err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != entry.SHA256 {
		return fmt.Errorf("%w: stage %q payload hashes %.12s…, manifest records %.12s…",
			ErrCorrupt, stage, got, entry.SHA256)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: stage %q does not decode: %w", ErrCorrupt, stage, err)
	}
	span.SetAttr("bytes", len(data))
	telemetry.HubFromContext(ctx).Registry.Counter(MetricLoads, telemetry.L("stage", stage)).Inc()
	return nil
}

// NoteSkip records that a build skipped a stage because the journal already
// holds its output (the checkpoint_stages_skipped_total counter).
func (j *Journal) NoteSkip(ctx context.Context, stage string) {
	telemetry.HubFromContext(ctx).Registry.Counter(MetricSkips, telemetry.L("stage", stage)).Inc()
}
