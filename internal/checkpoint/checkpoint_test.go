package checkpoint

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"patchdb/internal/telemetry"
)

type payload struct {
	N     int       `json:"n"`
	Items []string  `json:"items"`
	F     []float64 `json:"f"`
}

func testCtx() context.Context {
	return telemetry.WithHub(context.Background(), telemetry.NewHub())
}

func open(t *testing.T, dir string, o Options) *Journal {
	t.Helper()
	j, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx()
	j := open(t, dir, Options{Seed: 7, Fingerprint: "fp"})

	want := payload{N: 3, Items: []string{"a", "b"}, F: []float64{1.5, 0.1 + 0.2}}
	if err := j.Write(ctx, "crawl", want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := j.Write(ctx, "seed", payload{N: 9}); err != nil {
		t.Fatalf("Write seed: %v", err)
	}

	j2 := open(t, dir, Options{Seed: 7, Fingerprint: "fp", Resume: true})
	if got := j2.Stages(); len(got) != 2 || got[0] != "crawl" || got[1] != "seed" {
		t.Fatalf("Stages = %v", got)
	}
	if j2.LastCompleted() != "seed" {
		t.Fatalf("LastCompleted = %q", j2.LastCompleted())
	}
	var got payload
	if err := j2.Load(ctx, "crawl", &got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.N != want.N || len(got.Items) != 2 || got.F[1] != want.F[1] {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestOpenFreshTruncates(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx()
	j := open(t, dir, Options{Seed: 1, Fingerprint: "fp"})
	if err := j.Write(ctx, "crawl", payload{N: 1}); err != nil {
		t.Fatal(err)
	}

	j2 := open(t, dir, Options{Seed: 1, Fingerprint: "fp"}) // Resume false
	if j2.LastCompleted() != "" {
		t.Fatalf("fresh open kept stages: %v", j2.Stages())
	}
	if _, err := os.Stat(filepath.Join(dir, stageFile("crawl"))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stage payload survived truncation: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest survived truncation: %v", err)
	}
}

func TestResumeRefusesMismatch(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx()
	j := open(t, dir, Options{Seed: 1, Fingerprint: "fp"})
	if err := j.Write(ctx, "crawl", payload{}); err != nil {
		t.Fatal(err)
	}

	cases := []Options{
		{Seed: 1, Fingerprint: "other", Resume: true},
		{Seed: 2, Fingerprint: "fp", Resume: true},
	}
	for _, o := range cases {
		if _, err := Open(dir, o); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("Open(%+v) err = %v, want ErrConfigMismatch", o, err)
		}
	}
	// The journal itself must be untouched by refused opens.
	j2 := open(t, dir, Options{Seed: 1, Fingerprint: "fp", Resume: true})
	if j2.LastCompleted() != "crawl" {
		t.Fatalf("refused resume mutated journal: %v", j2.Stages())
	}
}

func TestResumeMissingManifestIsFresh(t *testing.T) {
	j := open(t, t.TempDir(), Options{Seed: 1, Fingerprint: "fp", Resume: true})
	if j.LastCompleted() != "" || len(j.Stages()) != 0 {
		t.Fatalf("empty dir resume not fresh: %v", j.Stages())
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx()
	j := open(t, dir, Options{Seed: 1, Fingerprint: "fp"})
	if err := j.Write(ctx, "crawl", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Flip payload bytes behind the manifest's back.
	path := filepath.Join(dir, stageFile("crawl"))
	if err := os.WriteFile(path, []byte(`{"n":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := open(t, dir, Options{Seed: 1, Fingerprint: "fp", Resume: true})
	var got payload
	if err := j2.Load(ctx, "crawl", &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of tampered payload: %v, want ErrCorrupt", err)
	}
}

func TestLoadUnknownStage(t *testing.T) {
	j := open(t, t.TempDir(), Options{})
	var got payload
	if err := j.Load(testCtx(), "nope", &got); err == nil {
		t.Fatal("Load of unjournaled stage succeeded")
	}
}

func TestRewriteStageReplacesEntry(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx()
	j := open(t, dir, Options{Seed: 1, Fingerprint: "fp"})
	if err := j.Write(ctx, "crawl", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(ctx, "crawl", payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if got := j.Stages(); len(got) != 1 {
		t.Fatalf("rewrite duplicated the stage: %v", got)
	}
	var got payload
	if err := j.Load(ctx, "crawl", &got); err != nil || got.N != 2 {
		t.Fatalf("Load after rewrite: %+v, %v", got, err)
	}
}

func TestFaultModes(t *testing.T) {
	ctx := testCtx()

	// before-write: crash reported, nothing journaled.
	dir := t.TempDir()
	j := open(t, dir, Options{Seed: 1, Fingerprint: "fp",
		Fault: &Fault{Stage: "seed", Mode: FaultBeforeWrite}})
	if err := j.Write(ctx, "crawl", payload{N: 1}); err != nil {
		t.Fatalf("unrelated stage hit fault: %v", err)
	}
	if err := j.Write(ctx, "seed", payload{N: 2}); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("before-write fault: %v", err)
	}
	j2 := open(t, dir, Options{Seed: 1, Fingerprint: "fp", Resume: true})
	if j2.LastCompleted() != "crawl" {
		t.Fatalf("before-write fault journaled the stage: %v", j2.Stages())
	}

	// after-write: crash reported, stage durably journaled.
	dir = t.TempDir()
	j = open(t, dir, Options{Seed: 1, Fingerprint: "fp",
		Fault: &Fault{Stage: "crawl", Mode: FaultAfterWrite}})
	if err := j.Write(ctx, "crawl", payload{N: 1}); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("after-write fault: %v", err)
	}
	j2 = open(t, dir, Options{Seed: 1, Fingerprint: "fp", Resume: true})
	if j2.LastCompleted() != "crawl" {
		t.Fatalf("after-write fault lost the stage: %v", j2.Stages())
	}
}

func TestFingerprintStable(t *testing.T) {
	type cfg struct {
		Seed  int64
		Pools []int
	}
	a, err := Fingerprint(cfg{Seed: 1, Pools: []int{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Fingerprint(cfg{Seed: 1, Pools: []int{10, 20}})
	c, _ := Fingerprint(cfg{Seed: 1, Pools: []int{10, 21}})
	if a != b {
		t.Fatalf("identical configs fingerprint differently: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("different configs share a fingerprint")
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(a))
	}
}

func TestTelemetryCounters(t *testing.T) {
	hub := telemetry.NewHub()
	ctx := telemetry.WithHub(context.Background(), hub)
	dir := t.TempDir()
	j := open(t, dir, Options{Seed: 1, Fingerprint: "fp"})
	if err := j.Write(ctx, "crawl", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	j.NoteSkip(ctx, "crawl")
	var got payload
	if err := j.Load(ctx, "crawl", &got); err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	for _, p := range hub.Registry.Snapshot() {
		counts[p.Name] += p.Value
	}
	for _, name := range []string{MetricWrites, MetricWriteBytes, MetricLoads, MetricSkips} {
		if counts[name] <= 0 {
			t.Errorf("counter %s = %v, want > 0", name, counts[name])
		}
	}
}
