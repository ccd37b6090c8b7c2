package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEvaluate(t *testing.T) {
	pred := []int{1, 1, 0, 0, 1, 0}
	truth := []int{1, 0, 0, 1, 1, 0}
	m := Evaluate(pred, truth)
	if m.TP != 2 || m.FP != 1 || m.TN != 2 || m.FN != 1 {
		t.Fatalf("confusion = %+v", m)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-9 {
		t.Errorf("precision = %v", m.Precision)
	}
	if math.Abs(m.Recall-2.0/3) > 1e-9 {
		t.Errorf("recall = %v", m.Recall)
	}
	if math.Abs(m.Accuracy-4.0/6) > 1e-9 {
		t.Errorf("accuracy = %v", m.Accuracy)
	}
	if math.Abs(m.F1-2.0/3) > 1e-9 {
		t.Errorf("f1 = %v", m.F1)
	}
}

func TestEvaluateDegenerate(t *testing.T) {
	m := Evaluate([]int{0, 0}, []int{0, 0})
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("all-negative metrics = %+v", m)
	}
	if m.Accuracy != 1 {
		t.Errorf("accuracy = %v", m.Accuracy)
	}
	if s := m.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestConfidenceInterval95(t *testing.T) {
	ci := ConfidenceInterval95(0.5, 100)
	if math.Abs(ci-1.96*0.05) > 1e-9 {
		t.Errorf("ci = %v", ci)
	}
	if ConfidenceInterval95(0.5, 0) != 0 {
		t.Error("n=0 must give 0")
	}
	if ConfidenceInterval95(0, 100) != 0 {
		t.Error("p=0 must give 0")
	}
}

func TestSplitStratified(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 100; i++ {
		y := NonSecurity
		if i < 20 {
			y = Security
		}
		d.Append([]float64{float64(i)}, y, "")
	}
	rng := rand.New(rand.NewSource(3))
	train, test := d.Split(0.8, rng)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
	}
	positives := func(d *Dataset) int {
		n := 0
		for _, y := range d.Y {
			if y == Security {
				n++
			}
		}
		return n
	}
	if p, q := positives(train), positives(test); p != 16 || q != 4 {
		t.Errorf("stratification broken: %d/%d positives", p, q)
	}
	// No row in both splits.
	seen := map[float64]bool{}
	for _, row := range train.X {
		seen[row[0]] = true
	}
	for _, row := range test.X {
		if seen[row[0]] {
			t.Fatalf("row %v in both splits", row)
		}
	}
}

func TestMergeAndSubset(t *testing.T) {
	a := &Dataset{}
	a.Append([]float64{1}, Security, "a")
	b := &Dataset{}
	b.Append([]float64{2}, NonSecurity, "b")
	m := Merge(a, b)
	if m.Len() != 2 || m.IDs[1] != "b" {
		t.Fatalf("merge = %+v", m)
	}
	s := m.Subset([]int{1})
	if s.Len() != 1 || s.Y[0] != NonSecurity {
		t.Fatalf("subset = %+v", s)
	}
}

type constClassifier struct{ p []float64 }

func (c *constClassifier) Fit([][]float64, []int) error { return nil }
func (c *constClassifier) Predict(x []float64) int      { return 0 }
func (c *constClassifier) Proba(x []float64) float64    { return x[0] }

func TestArgmaxProba(t *testing.T) {
	rows := [][]float64{{0.1}, {0.9}, {0.5}, {0.7}}
	got := ArgmaxProba(&constClassifier{}, rows, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("ArgmaxProba = %v", got)
	}
	// k larger than rows.
	if got := ArgmaxProba(&constClassifier{}, rows, 10); len(got) != 4 {
		t.Errorf("clamped k = %v", got)
	}
}

// TestArgmaxProbaTiesKeepRowOrder checks ArgmaxProba against a selection
// by hand: the highest probability first, and among equal probabilities
// the lower row index first. Probabilities come from five levels, so most
// rows tie with others.
func TestArgmaxProbaTiesKeepRowOrder(t *testing.T) {
	f := func(levels []uint8, k uint8) bool {
		rows := make([][]float64, len(levels))
		for i, l := range levels {
			rows[i] = []float64{float64(l%5) / 4}
		}
		got := ArgmaxProba(&constClassifier{}, rows, int(k))
		want := make([]int, 0, len(rows))
		for level := 4; level >= 0; level-- {
			for i, l := range levels {
				if int(l%5) == level {
					want = append(want, i)
				}
			}
		}
		want = want[:min(int(k), len(want))]
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateClassifier(t *testing.T) {
	d := &Dataset{X: [][]float64{{0.9}, {0.1}}, Y: []int{1, 0}}
	c := &thresholdClassifier{}
	m := EvaluateClassifier(c, d)
	if m.Accuracy != 1 {
		t.Errorf("accuracy = %v", m.Accuracy)
	}
}

type thresholdClassifier struct{}

func (c *thresholdClassifier) Fit([][]float64, []int) error { return nil }
func (c *thresholdClassifier) Predict(x []float64) int {
	if x[0] >= 0.5 {
		return Security
	}
	return NonSecurity
}
func (c *thresholdClassifier) Proba(x []float64) float64 { return x[0] }
