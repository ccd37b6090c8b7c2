// Package linear implements the linear-model family used in PatchDB's
// evaluation: logistic regression, an SGD classifier, a linear SVM trained
// with Pegasos, an SMO-style dual SVM, and the voted perceptron (five of the
// ten Weka classifiers behind Table III's uncertainty-based labeling
// baseline).
package linear

import (
	"math"
	"math/rand"
	"slices"

	"patchdb/internal/ml"
)

// standardizer performs per-feature z-scoring so gradient methods converge
// on raw count features.
type standardizer struct {
	mean, std []float64
}

func fitStandardizer(x [][]float64) *standardizer {
	dim := len(x[0])
	s := &standardizer{mean: make([]float64, dim), std: make([]float64, dim)}
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-9 {
			s.std[j] = 1
		}
	}
	return s
}

func (s *standardizer) apply(row []float64) []float64 {
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

func (s *standardizer) applyAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.apply(row)
	}
	return out
}

func sigmoid(z float64) float64 {
	if z < -30 {
		return 0
	}
	if z > 30 {
		return 1
	}
	return 1 / (1 + math.Exp(-z))
}

// Training settings of the five models, fixed as the paper's evaluation
// runs each in one configuration.
const (
	logisticEpochs = 200  // full-batch gradient descent steps
	logisticLR     = 0.1  // learning rate
	logisticL2     = 1e-4 // ridge penalty

	sgdEpochs = 20
	sgdEta0   = 0.05 // initial learning rate, scaled by 1/sqrt(t)
	sgdL2     = 1e-4

	svmEpochs = 30
	svmLambda = 1e-4 // Pegasos regularization

	smoC      = 1    // box constraint
	smoTol    = 1e-3 // KKT tolerance
	smoPasses = 3    // passes without a change before stopping
	// smoMaxRows caps the training subsample so the O(n^2) loop stays
	// tractable on large datasets.
	smoMaxRows = 800

	vpEpochs = 5
	// vpMaxVectors caps the stored prediction vectors; the two oldest are
	// merged by weight when the cap is hit.
	vpMaxVectors = 200
)

func dot(w, x []float64) float64 {
	sum := 0.0
	for j, v := range x {
		sum += w[j] * v
	}
	return sum
}

// Logistic is L2-regularized logistic regression trained with full-batch
// gradient descent.
type Logistic struct {
	w    []float64
	b    float64
	norm *standardizer
}

var _ ml.Classifier = (*Logistic)(nil)

// Fit trains the model.
func (l *Logistic) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	l.norm = fitStandardizer(x)
	xs := l.norm.applyAll(x)
	dim := len(xs[0])
	l.w = make([]float64, dim)
	l.b = 0
	n := float64(len(xs))
	gw := make([]float64, dim)
	for epoch := 0; epoch < logisticEpochs; epoch++ {
		for j := range gw {
			gw[j] = 0
		}
		gb := 0.0
		for i, row := range xs {
			err := sigmoid(dot(l.w, row)+l.b) - float64(y[i])
			for j, v := range row {
				gw[j] += err * v
			}
			gb += err
		}
		for j := range l.w {
			l.w[j] -= logisticLR * (gw[j]/n + logisticL2*l.w[j])
		}
		l.b -= logisticLR * gb / n
	}
	return nil
}

// Proba returns P(security).
func (l *Logistic) Proba(x []float64) float64 {
	if l.w == nil {
		return 0
	}
	return sigmoid(dot(l.w, l.norm.apply(x)) + l.b)
}

// Predict thresholds at 0.5.
func (l *Logistic) Predict(x []float64) int { return threshold(l.Proba(x)) }

// SGD is a logistic-loss stochastic gradient descent classifier with an
// inverse-scaling learning rate, mirroring scikit/Weka SGD.
type SGD struct {
	Seed int64

	w    []float64
	b    float64
	norm *standardizer
}

var _ ml.Classifier = (*SGD)(nil)

// Fit trains the model.
func (s *SGD) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	s.norm = fitStandardizer(x)
	xs := s.norm.applyAll(x)
	dim := len(xs[0])
	s.w = make([]float64, dim)
	rng := rand.New(rand.NewSource(s.Seed + 11))
	t := 1.0
	for epoch := 0; epoch < sgdEpochs; epoch++ {
		for _, i := range rng.Perm(len(xs)) {
			eta := sgdEta0 / math.Sqrt(t)
			t++
			row := xs[i]
			err := sigmoid(dot(s.w, row)+s.b) - float64(y[i])
			for j, v := range row {
				s.w[j] -= eta * (err*v + sgdL2*s.w[j])
			}
			s.b -= eta * err
		}
	}
	return nil
}

// Proba returns P(security).
func (s *SGD) Proba(x []float64) float64 {
	if s.w == nil {
		return 0
	}
	return sigmoid(dot(s.w, s.norm.apply(x)) + s.b)
}

// Predict thresholds at 0.5.
func (s *SGD) Predict(x []float64) int { return threshold(s.Proba(x)) }

// SVM is a linear support vector machine trained with the Pegasos
// stochastic sub-gradient algorithm. Proba is a Platt-style sigmoid over the
// margin.
type SVM struct {
	Seed int64

	w    []float64
	b    float64
	norm *standardizer
}

var _ ml.Classifier = (*SVM)(nil)

// Fit trains with Pegasos.
func (s *SVM) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	s.norm = fitStandardizer(x)
	xs := s.norm.applyAll(x)
	dim := len(xs[0])
	s.w = make([]float64, dim)
	rng := rand.New(rand.NewSource(s.Seed + 17))
	t := 1.0
	for epoch := 0; epoch < svmEpochs; epoch++ {
		for _, i := range rng.Perm(len(xs)) {
			eta := 1 / (svmLambda * t)
			t++
			row := xs[i]
			yi := float64(2*y[i] - 1) // {-1,+1}
			margin := yi * (dot(s.w, row) + s.b)
			for j := range s.w {
				s.w[j] *= 1 - eta*svmLambda
			}
			if margin < 1 {
				for j, v := range row {
					s.w[j] += eta * yi * v
				}
				s.b += eta * yi * 0.1
			}
		}
	}
	return nil
}

// Margin returns the signed distance-like score w.x+b.
func (s *SVM) Margin(x []float64) float64 {
	if s.w == nil {
		return 0
	}
	return dot(s.w, s.norm.apply(x)) + s.b
}

// Proba squashes the margin through a sigmoid (0 before Fit).
func (s *SVM) Proba(x []float64) float64 {
	if s.w == nil {
		return 0
	}
	return sigmoid(2 * s.Margin(x))
}

// Predict uses the sign of the margin.
func (s *SVM) Predict(x []float64) int {
	if s.Margin(x) >= 0 {
		return ml.Security
	}
	return ml.NonSecurity
}

// SMO is a dual-form linear SVM trained with a simplified Sequential
// Minimal Optimization loop (Platt's algorithm with random second-choice
// heuristic), standing in for Weka's SMO classifier.
type SMO struct {
	Seed int64

	w    []float64
	b    float64
	norm *standardizer
}

var _ ml.Classifier = (*SMO)(nil)

// Fit runs simplified SMO on (a subsample of) the data, then collapses the
// dual solution into a primal weight vector (valid for the linear kernel).
func (s *SMO) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	xs, ys, rng := s.rows(x, y)
	sv, b := smoDual(xs, ys, rng)
	s.w = make([]float64, len(xs[0]))
	for _, k := range sv.idx {
		for j, v := range xs[k] {
			s.w[j] += sv.c[k] * v
		}
	}
	s.b = b
	return nil
}

// rows fits the standardizer and returns the standardized training rows
// (a subsample of at most smoMaxRows) with their ±1 labels, and the
// generator that drew the subsample, which the pair loop reads next.
func (s *SMO) rows(x [][]float64, y []int) ([][]float64, []float64, *rand.Rand) {
	rng := rand.New(rand.NewSource(s.Seed + 23))
	idx := rng.Perm(len(x))
	if len(idx) > smoMaxRows {
		idx = idx[:smoMaxRows]
	}
	s.norm = fitStandardizer(x)
	xs := make([][]float64, len(idx))
	ys := make([]float64, len(idx))
	for k, i := range idx {
		xs[k] = s.norm.apply(x[i])
		ys[k] = float64(2*y[i] - 1)
	}
	return xs, ys, rng
}

// supportVectors holds SMO's dual variables: alpha, the indices whose
// alpha is nonzero in increasing order (idx), and c[k] = alpha[k]*ys[k].
type supportVectors struct {
	alpha, ys, c []float64
	idx          []int
	// drops counts the alphas that returned to exactly 0.
	drops int
}

// set writes alpha[k] = a and keeps c[k] and idx in step with it.
func (sv *supportVectors) set(k int, a float64) {
	was := sv.alpha[k] != 0
	sv.alpha[k] = a
	sv.c[k] = a * sv.ys[k]
	if now := a != 0; now != was {
		pos, _ := slices.BinarySearch(sv.idx, k)
		if now {
			sv.idx = slices.Insert(sv.idx, pos, k)
		} else {
			sv.idx = slices.Delete(sv.idx, pos, pos+1)
			sv.drops++
		}
	}
}

// smoDual runs the pair loop on standardized rows xs with labels ys and
// returns the dual solution and the bias.
func smoDual(xs [][]float64, ys []float64, rng *rand.Rand) (*supportVectors, float64) {
	n := len(xs)
	sv := &supportVectors{alpha: make([]float64, n), ys: ys, c: make([]float64, n)}
	alpha := sv.alpha
	b := 0.0
	// gram[i*n+k] = dot(xs[i], xs[k]), computed once. The matrix is
	// symmetric bit for bit (products commute and each dot product sums in
	// the same order), so f reads row i contiguously.
	gram := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := i; k < n; k++ {
			v := dot(xs[i], xs[k])
			gram[i*n+k] = v
			gram[k*n+i] = v
		}
	}
	// f sums over the support vectors alone, in increasing index order:
	// the terms with alpha[k] == 0 are the ones a full scan skips, and
	// c[k]*g is alpha[k]*ys[k]*g as Go evaluates it, left to right.
	f := func(i int) float64 {
		sum := b
		row := gram[i*n : (i+1)*n]
		for _, k := range sv.idx {
			sum += sv.c[k] * row[k]
		}
		return sum
	}
	passes := 0
	// With fewer than two rows there is no second index to pair with, so
	// the model keeps all alphas at zero.
	for n >= 2 && passes < smoPasses {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - ys[i]
			if (ys[i]*ei < -smoTol && alpha[i] < smoC) || (ys[i]*ei > smoTol && alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - ys[j]
				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if ys[i] != ys[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(smoC, smoC+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-smoC)
					hi = math.Min(smoC, ai+aj)
				}
				if lo == hi {
					continue
				}
				kii, kij, kjj := gram[i*n+i], gram[i*n+j], gram[j*n+j]
				eta := 2*kij - kii - kjj
				if eta >= 0 {
					continue
				}
				// The clamped alpha[j] is kept even when the step is too
				// small to count as a change.
				sv.set(j, math.Min(hi, math.Max(lo, aj-ys[j]*(ei-ej)/eta)))
				if math.Abs(alpha[j]-aj) < 1e-5 {
					continue
				}
				sv.set(i, ai+ys[i]*ys[j]*(aj-alpha[j]))
				b1 := b - ei - ys[i]*(alpha[i]-ai)*kii - ys[j]*(alpha[j]-aj)*kij
				b2 := b - ej - ys[i]*(alpha[i]-ai)*kij - ys[j]*(alpha[j]-aj)*kjj
				switch {
				case alpha[i] > 0 && alpha[i] < smoC:
					b = b1
				case alpha[j] > 0 && alpha[j] < smoC:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return sv, b
}

// Proba squashes the margin.
func (s *SMO) Proba(x []float64) float64 {
	if s.w == nil {
		return 0
	}
	return sigmoid(2 * (dot(s.w, s.norm.apply(x)) + s.b))
}

// Predict uses the margin sign.
func (s *SMO) Predict(x []float64) int {
	if s.Proba(x) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}

// VotedPerceptron implements Freund & Schapire's voted perceptron.
type VotedPerceptron struct {
	Seed int64

	vectors [][]float64
	biases  []float64
	votes   []float64
	norm    *standardizer
}

var _ ml.Classifier = (*VotedPerceptron)(nil)

// Fit trains the model.
func (v *VotedPerceptron) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	v.norm = fitStandardizer(x)
	xs := v.norm.applyAll(x)
	dim := len(xs[0])
	rng := rand.New(rand.NewSource(v.Seed + 29))

	w := make([]float64, dim)
	b := 0.0
	c := 1.0
	v.vectors = nil
	v.biases = nil
	v.votes = nil
	for epoch := 0; epoch < vpEpochs; epoch++ {
		for _, i := range rng.Perm(len(xs)) {
			yi := float64(2*y[i] - 1)
			if yi*(dot(w, xs[i])+b) <= 0 {
				v.pushVector(w, b, c)
				nw := append([]float64(nil), w...)
				for j, val := range xs[i] {
					nw[j] += yi * val
				}
				w = nw
				b += yi
				c = 1
			} else {
				c++
			}
		}
	}
	v.pushVector(w, b, c)
	return nil
}

func (v *VotedPerceptron) pushVector(w []float64, b, c float64) {
	if len(v.vectors) >= vpMaxVectors {
		// Merge the two oldest by vote weight to bound memory.
		w0, w1 := v.vectors[0], v.vectors[1]
		c0, c1 := v.votes[0], v.votes[1]
		merged := make([]float64, len(w0))
		for j := range merged {
			merged[j] = (w0[j]*c0 + w1[j]*c1) / (c0 + c1)
		}
		mb := (v.biases[0]*c0 + v.biases[1]*c1) / (c0 + c1)
		v.vectors = append([][]float64{merged}, v.vectors[2:]...)
		v.biases = append([]float64{mb}, v.biases[2:]...)
		v.votes = append([]float64{c0 + c1}, v.votes[2:]...)
	}
	v.vectors = append(v.vectors, append([]float64(nil), w...))
	v.biases = append(v.biases, b)
	v.votes = append(v.votes, c)
}

// score returns the vote-weighted sign sum.
func (v *VotedPerceptron) score(x []float64) float64 {
	row := v.norm.apply(x)
	total := 0.0
	weight := 0.0
	for k, w := range v.vectors {
		s := dot(w, row) + v.biases[k]
		sign := 1.0
		if s < 0 {
			sign = -1
		}
		total += v.votes[k] * sign
		weight += v.votes[k]
	}
	if weight == 0 {
		return 0
	}
	return total / weight
}

// Proba maps the vote share into [0,1].
func (v *VotedPerceptron) Proba(x []float64) float64 {
	if len(v.vectors) == 0 {
		return 0
	}
	return (v.score(x) + 1) / 2
}

// Predict uses the vote majority.
func (v *VotedPerceptron) Predict(x []float64) int {
	if v.Proba(x) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}

func threshold(p float64) int {
	if p >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}
