package experiments

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"patchdb/internal/corpus"
	"patchdb/internal/ml"
)

var (
	labOnce sync.Once
	lab     *Lab
)

// sharedLab builds one SmallScale lab for the whole test binary; the
// augmentation schedule runs once and is cached inside the Lab.
func sharedLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() { lab = NewLab(SmallScale) })
	return lab
}

// Tables IV and VI train RNNs for seconds, so each is computed once per
// GOMAXPROCS setting for the whole test binary. The shape tests read the
// run at 4; TestWorkerInvariance compares it with the run at 1.
var (
	tableIVAt = map[int]*TableIV{}
	tableVIAt = map[int]*TableVI{}
)

// memoAt returns cache[procs], running run on the shared lab with
// GOMAXPROCS set to procs (and restored after) on the first call.
func memoAt[T any](t *testing.T, cache map[int]T, procs int, run func(*Lab) (T, error)) T {
	t.Helper()
	if v, ok := cache[procs]; ok {
		return v
	}
	l := sharedLab(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	v, err := run(l)
	if err != nil {
		t.Fatal(err)
	}
	cache[procs] = v
	return v
}

func TestLabPopulations(t *testing.T) {
	l := sharedLab(t)
	if len(l.NVD) != SmallScale.NVDSeed || len(l.NonSec) != SmallScale.NonSecSeed {
		t.Fatalf("seed sizes = %d/%d", len(l.NVD), len(l.NonSec))
	}
	if len(l.SetI) != SmallScale.SetI || len(l.SetII) != SmallScale.SetII {
		t.Fatalf("pool sizes = %d/%d", len(l.SetI), len(l.SetII))
	}
	for _, lc := range l.NVD {
		if !lc.Security {
			t.Fatal("NVD commit not security")
		}
	}
	for _, lc := range l.NonSec {
		if lc.Security {
			t.Fatal("NonSec commit is security")
		}
	}
	// Features are cached and dimension-stable.
	v1 := l.Features(l.NVD[0])
	v2 := l.Features(l.NVD[0])
	if &v1[0] != &v2[0] {
		t.Error("feature cache miss on second lookup")
	}
}

func TestTableIIShape(t *testing.T) {
	l := sharedLab(t)
	tab, err := l.RunTableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// Round numbering is sequential across pools.
	for i, r := range tab.Rows {
		if r.Round.Round != i+1 {
			t.Errorf("row %d numbered %d", i, r.Round.Round)
		}
	}
	// Candidates per round equal the current seed size, so they must grow
	// monotonically within a pool.
	if tab.Rows[1].Candidates <= tab.Rows[0].Candidates {
		t.Errorf("candidates did not grow: %d then %d", tab.Rows[0].Candidates, tab.Rows[1].Candidates)
	}
	// The first-round ratio must be a multiple of the ~8% base rate.
	if tab.Rows[0].Ratio < 0.16 {
		t.Errorf("round 1 ratio = %.2f, want >= 2x the 8%% base rate", tab.Rows[0].Ratio)
	}
	// Sets labeled like the paper.
	if !strings.HasPrefix(tab.Rows[0].Set, "Set I") || !strings.HasPrefix(tab.Rows[3].Set, "Set II") ||
		!strings.HasPrefix(tab.Rows[4].Set, "Set III") {
		t.Errorf("set labels: %q %q %q", tab.Rows[0].Set, tab.Rows[3].Set, tab.Rows[4].Set)
	}
	if tab.TotalSecurity <= tab.NVDCount {
		t.Error("no wild security patches discovered")
	}
	if s := tab.String(); !strings.Contains(s, "Table II") {
		t.Error("render missing title")
	}
}

func TestTableIIIOrdering(t *testing.T) {
	l := sharedLab(t)
	tab, err := l.RunTableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	byMethod := map[string]TableIIIRow{}
	for _, r := range tab.Rows {
		byMethod[r.Method] = r
	}
	bf := byMethod["Brute Force Search"]
	nl := byMethod["Nearest Link Search (ours)"]
	pl := byMethod["Pseudo Labeling"]
	ub := byMethod["Uncertainty-based Labeling"]
	// The paper's headline: nearest link beats everything; brute force is
	// the base rate.
	if nl.SecurityPct <= bf.SecurityPct*2 {
		t.Errorf("nearest link %.2f not well above brute force %.2f", nl.SecurityPct, bf.SecurityPct)
	}
	if nl.SecurityPct <= pl.SecurityPct {
		t.Errorf("nearest link %.2f not above pseudo labeling %.2f", nl.SecurityPct, pl.SecurityPct)
	}
	if nl.SecurityPct <= ub.SecurityPct {
		t.Errorf("nearest link %.2f not above uncertainty labeling %.2f", nl.SecurityPct, ub.SecurityPct)
	}
	// Candidate set sizes: NL and PL return one candidate per seed patch.
	if nl.Candidates != len(l.NVD) || pl.Candidates != len(l.NVD) {
		t.Errorf("candidate counts: nl=%d pl=%d, want %d", nl.Candidates, pl.Candidates, len(l.NVD))
	}
	if bf.Candidates != len(l.SetII) {
		t.Errorf("brute force candidates = %d", bf.Candidates)
	}
	for _, r := range tab.Rows {
		if r.CI95 < 0 || r.CI95 > 0.2 {
			t.Errorf("%s CI = %v", r.Method, r.CI95)
		}
	}
	if s := tab.String(); !strings.Contains(s, "Nearest Link") {
		t.Error("render missing method")
	}
}

func TestTableVAndFigure6(t *testing.T) {
	l := sharedLab(t)
	tab, err := l.RunTableV()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for p := corpus.Pattern(1); int(p) <= corpus.NumPatterns; p++ {
		sum += tab.Dist.Pct(p)
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("distribution sums to %.2f", sum)
	}

	fig, err := l.RunFigure6()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline finding: NVD's head class is Type 11 (redesign),
	// the wild's head class is Type 8 (function calls).
	if got := HeadClass(&fig.NVD); got != corpus.PatternRedesign {
		t.Errorf("NVD head class = %v, want redesign", got)
	}
	if got := HeadClass(&fig.Wild); got != corpus.PatternFuncCall {
		t.Errorf("wild head class = %v, want function calls", got)
	}
	// Type 11 collapses in the wild (paper: ~31%% -> ~5%%).
	if fig.Wild.Pct(corpus.PatternRedesign) >= fig.NVD.Pct(corpus.PatternRedesign) {
		t.Errorf("redesign share did not collapse: NVD %.1f%% wild %.1f%%",
			fig.NVD.Pct(corpus.PatternRedesign), fig.Wild.Pct(corpus.PatternRedesign))
	}
	if s := fig.String(); !strings.Contains(s, "head class") {
		t.Error("render missing head class line")
	}
}

func TestTableIVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("RNN training")
	}
	tab := memoAt(t, tableIVAt, 4, (*Lab).RunTableIV)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0].Dataset != "NVD" || tab.Rows[2].Dataset != "NVD+Wild" {
		t.Errorf("row datasets: %q %q", tab.Rows[0].Dataset, tab.Rows[2].Dataset)
	}
	if tab.Rows[0].Synthetic != "-" || tab.Rows[1].Synthetic == "-" {
		t.Error("synthetic annotations wrong")
	}
	for i, r := range tab.Rows {
		if r.Metrics.Precision < 0 || r.Metrics.Precision > 1 ||
			r.Metrics.Recall < 0 || r.Metrics.Recall > 1 {
			t.Errorf("row %d metrics out of range: %+v", i, r.Metrics)
		}
	}
	// The models must be far better than chance on their test sets.
	if tab.Rows[0].Metrics.F1 < 0.45 {
		t.Errorf("NVD baseline F1 = %.2f", tab.Rows[0].Metrics.F1)
	}
	if s := tab.String(); !strings.Contains(s, "Synthetic") {
		t.Error("render missing synthetic column")
	}
}

func TestTableVIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("RNN training")
	}
	tab := memoAt(t, tableVIAt, 4, (*Lab).RunTableVI)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (2 train x 2 algo x 2 test)", len(tab.Rows))
	}
	get := func(train, algo, test string) TableVIRow {
		for _, r := range tab.Rows {
			if r.TrainSet == train && r.Algorithm == algo && r.TestSet == test {
				return r
			}
		}
		t.Fatalf("row %s/%s/%s missing", train, algo, test)
		return TableVIRow{}
	}
	// The paper's dataset-quality story: models trained on NVD+Wild are more
	// stable on the wild test set than NVD-only models (higher precision on
	// wild test data).
	for _, algo := range []string{"Random Forest", "RNN"} {
		nvdOnly := get("NVD", algo, "Wild")
		both := get("NVD+Wild", algo, "Wild")
		if both.Metrics.Precision <= nvdOnly.Metrics.Precision {
			t.Errorf("%s: NVD+Wild wild-test precision %.2f not above NVD-only %.2f",
				algo, both.Metrics.Precision, nvdOnly.Metrics.Precision)
		}
	}
	if s := tab.String(); !strings.Contains(s, "Random Forest") {
		t.Error("render missing algorithm")
	}
}

// TestWorkerInvariance checks that Tables IV and VI, whose fits run as
// parallel items, give the same metrics bit for bit on one worker as on
// four.
func TestWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("RNN training")
	}
	var got [2][]ml.Metrics
	for k, procs := range []int{1, 4} {
		for _, r := range memoAt(t, tableIVAt, procs, (*Lab).RunTableIV).Rows {
			got[k] = append(got[k], r.Metrics)
		}
		for _, r := range memoAt(t, tableVIAt, procs, (*Lab).RunTableVI).Rows {
			got[k] = append(got[k], r.Metrics)
		}
	}
	if len(got[0]) != len(got[1]) {
		t.Fatalf("%d rows at 1 worker, %d at 4", len(got[0]), len(got[1]))
	}
	bits := func(m ml.Metrics) [8]uint64 {
		return [8]uint64{uint64(m.TP), uint64(m.FP), uint64(m.TN), uint64(m.FN),
			math.Float64bits(m.Precision), math.Float64bits(m.Recall),
			math.Float64bits(m.F1), math.Float64bits(m.Accuracy)}
	}
	for i := range got[0] {
		if bits(got[0][i]) != bits(got[1][i]) {
			t.Errorf("row %d: %+v at 1 worker, %+v at 4", i, got[0][i], got[1][i])
		}
	}
}

func TestScalesAreDistinct(t *testing.T) {
	if SmallScale.NVDSeed >= DefaultScale.NVDSeed || DefaultScale.NVDSeed >= PaperScale.NVDSeed {
		t.Error("scale ordering broken")
	}
	if PaperScale.NVDSeed != 4076 || PaperScale.SetI != 100000 {
		t.Error("paper scale does not match the paper")
	}
}

func TestTableVII(t *testing.T) {
	l := sharedLab(t)
	tab, err := l.RunTableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Templates) == 0 {
		t.Fatal("no templates mined")
	}
	if s := tab.String(); !strings.Contains(s, "Table VII") {
		t.Error("render missing reference")
	}
}
