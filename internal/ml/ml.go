// Package ml provides the machine-learning substrate PatchDB's evaluation
// relies on: dataset containers, train/test splitting, classification
// metrics with confidence intervals, and the Classifier interface all model
// families (trees, linear models, Bayes, the RNN) implement.
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Label values for the binary security-patch identification task.
const (
	// NonSecurity is the negative class.
	NonSecurity = 0
	// Security is the positive class.
	Security = 1
)

// ErrEmptyDataset is returned by Fit when there are no training rows.
var ErrEmptyDataset = errors.New("ml: empty training dataset")

// Classifier is a binary classifier over feature vectors.
type Classifier interface {
	// Fit trains on rows X with labels y (0 or 1).
	Fit(x [][]float64, y []int) error
	// Predict returns the predicted label for one row.
	Predict(x []float64) int
	// Proba returns the estimated probability of the positive class.
	Proba(x []float64) float64
}

// Dataset couples feature rows with labels and optional opaque ids.
type Dataset struct {
	X   [][]float64
	Y   []int
	IDs []string
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Append adds one row.
func (d *Dataset) Append(x []float64, y int, id string) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
	d.IDs = append(d.IDs, id)
}

// Merge returns a new dataset with the rows of both inputs.
func Merge(a, b *Dataset) *Dataset {
	out := &Dataset{
		X:   make([][]float64, 0, a.Len()+b.Len()),
		Y:   make([]int, 0, a.Len()+b.Len()),
		IDs: make([]string, 0, a.Len()+b.Len()),
	}
	for _, d := range []*Dataset{a, b} {
		out.X = append(out.X, d.X...)
		out.Y = append(out.Y, d.Y...)
		out.IDs = append(out.IDs, d.IDs...)
	}
	return out
}

// Subset returns the dataset restricted to the given row indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		X:   make([][]float64, len(idx)),
		Y:   make([]int, len(idx)),
		IDs: make([]string, len(idx)),
	}
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
		if j < len(d.IDs) {
			out.IDs[i] = d.IDs[j]
		}
	}
	return out
}

// Split partitions the dataset into train/test with the given train
// fraction, shuffling with rng. It is stratified per class so both splits
// keep the class balance (the paper's 80/20 protocol).
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	var pos, neg []int
	for i, y := range d.Y {
		if y == Security {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	var trainIdx, testIdx []int
	for _, class := range [][]int{pos, neg} {
		cut := int(float64(len(class)) * trainFrac)
		trainIdx = append(trainIdx, class[:cut]...)
		testIdx = append(testIdx, class[cut:]...)
	}
	rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// Metrics summarizes binary classification quality.
type Metrics struct {
	TP, FP, TN, FN int
	Precision      float64
	Recall         float64
	F1             float64
	Accuracy       float64
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.1f%% R=%.1f%% F1=%.1f%% Acc=%.1f%% (tp=%d fp=%d tn=%d fn=%d)",
		100*m.Precision, 100*m.Recall, 100*m.F1, 100*m.Accuracy, m.TP, m.FP, m.TN, m.FN)
}

// Evaluate computes metrics from predictions against ground truth.
func Evaluate(pred, truth []int) Metrics {
	var m Metrics
	for i := range pred {
		switch {
		case pred[i] == Security && truth[i] == Security:
			m.TP++
		case pred[i] == Security && truth[i] == NonSecurity:
			m.FP++
		case pred[i] == NonSecurity && truth[i] == NonSecurity:
			m.TN++
		default:
			m.FN++
		}
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	total := m.TP + m.FP + m.TN + m.FN
	if total > 0 {
		m.Accuracy = float64(m.TP+m.TN) / float64(total)
	}
	return m
}

// EvaluateClassifier runs the classifier over the test set and scores it.
func EvaluateClassifier(c Classifier, test *Dataset) Metrics {
	pred := make([]int, test.Len())
	for i, x := range test.X {
		pred[i] = c.Predict(x)
	}
	return Evaluate(pred, test.Y)
}

// ConfidenceInterval95 returns the half-width of the 95% normal-approximation
// confidence interval for a proportion p observed over n samples (the
// "(±x)%" annotations of Table III).
func ConfidenceInterval95(p float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return 1.96 * math.Sqrt(p*(1-p)/float64(n))
}

// ArgmaxProba returns the indices of the k rows with the highest positive
// probability under c, in descending order (used by pseudo labeling).
func ArgmaxProba(c Classifier, rows [][]float64, k int) []int {
	type scored struct {
		idx int
		p   float64
	}
	all := make([]scored, len(rows))
	for i, x := range rows {
		all[i] = scored{i, c.Proba(x)}
	}
	// partial selection sort via heap-free nth_element would be fine; a full
	// sort keeps it simple at these sizes.
	sortSlice(all, func(a, b scored) bool { return a.p > b.p })
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].idx
	}
	return out
}

func sortSlice[T any](s []T, less func(a, b T) bool) {
	// Simple merge sort to avoid reflection-based sort.Slice in hot paths.
	if len(s) < 2 {
		return
	}
	mid := len(s) / 2
	left := append([]T(nil), s[:mid]...)
	right := append([]T(nil), s[mid:]...)
	sortSlice(left, less)
	sortSlice(right, less)
	i, j := 0, 0
	for k := range s {
		switch {
		case i < len(left) && (j >= len(right) || !less(right[j], left[i])):
			s[k] = left[i]
			i++
		default:
			s[k] = right[j]
			j++
		}
	}
}
