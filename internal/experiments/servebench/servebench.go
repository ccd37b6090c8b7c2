// Package servebench generates the dataset the serving layer is measured
// on: the perfbench benchmark's serve workload loads it into
// internal/store and queries it over loopback HTTP. It lives outside
// internal/experiments proper because it depends on the root patchdb
// package (for Dataset/Record), which the root package's own benchmarks
// would turn into an import cycle through internal/experiments.
package servebench

import (
	"patchdb"
	"patchdb/internal/corpus"
	"patchdb/internal/diff"
	"patchdb/internal/experiments"
)

// ServeDataset assembles a serving-bench dataset from generated populations
// (no crawl, no augmentation): the scale's NVD seed as nvd records, the
// cleaned non-security seed, and the full Set I wild pool split by ground
// truth into wild security and non-security records.
func ServeDataset(s experiments.Scale) *patchdb.Dataset {
	gen := corpus.NewGenerator(corpus.Config{Seed: s.Seed})
	ds := &patchdb.Dataset{}
	for _, lc := range gen.GenerateNVD(s.NVDSeed) {
		ds.NVD = append(ds.NVD, patchdb.Record{
			ID: lc.Commit.Hash, Repo: lc.Commit.Repo, CVE: lc.CVE, Security: true,
			Pattern: lc.Pattern, Source: "nvd", Text: diff.Format(lc.Commit.Patch()),
		})
	}
	for _, lc := range gen.GenerateNonSecurity(s.NonSecSeed) {
		ds.NonSecurity = append(ds.NonSecurity, patchdb.Record{
			ID: lc.Commit.Hash, Repo: lc.Commit.Repo, Security: false,
			Source: "wild", Text: diff.Format(lc.Commit.Patch()),
		})
	}
	for _, lc := range gen.GenerateWild(s.SetI) {
		r := patchdb.Record{
			ID: lc.Commit.Hash, Repo: lc.Commit.Repo, Security: lc.Security,
			Source: "wild", Text: diff.Format(lc.Commit.Patch()),
		}
		if lc.Security {
			r.Pattern = lc.Pattern
			ds.Wild = append(ds.Wild, r)
		} else {
			ds.NonSecurity = append(ds.NonSecurity, r)
		}
	}
	return ds
}
