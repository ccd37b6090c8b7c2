package servebench

import (
	"testing"

	"patchdb/internal/experiments"
)

func TestServeDataset(t *testing.T) {
	s := experiments.Scale{Name: "tiny", Seed: 7, NVDSeed: 20, NonSecSeed: 30, SetI: 100}
	ds := ServeDataset(s)
	if len(ds.NVD) != s.NVDSeed {
		t.Fatalf("nvd = %d, want %d", len(ds.NVD), s.NVDSeed)
	}
	if got := len(ds.Wild) + len(ds.NonSecurity) - s.NonSecSeed; got != s.SetI {
		t.Fatalf("wild pool split = %d, want %d", got, s.SetI)
	}
	for _, r := range ds.NVD {
		if r.CVE == "" || !r.Security || r.Text == "" {
			t.Fatalf("malformed nvd record %+v", r)
		}
	}
	for _, r := range ds.Wild {
		if !r.Security || r.Source != "wild" {
			t.Fatalf("malformed wild record %+v", r)
		}
	}
}
