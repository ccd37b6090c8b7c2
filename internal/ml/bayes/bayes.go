// Package bayes implements probabilistic classifiers: Gaussian naive Bayes
// and a tree-augmented naive Bayes network learned with the Chow-Liu algorithm — the "Naive Bayes" and "Bayesian
// Network" members of the ten-classifier ensemble in Table III.
package bayes

import (
	"math"
	"sort"

	"patchdb/internal/ml"
)

// GaussianNB models each feature as a per-class Gaussian.
type GaussianNB struct {
	priors [2]float64
	mean   [2][]float64
	vari   [2][]float64
}

var _ ml.Classifier = (*GaussianNB)(nil)

// Fit estimates per-class feature means and variances.
func (g *GaussianNB) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	dim := len(x[0])
	var count [2]int
	for c := 0; c < 2; c++ {
		g.mean[c] = make([]float64, dim)
		g.vari[c] = make([]float64, dim)
	}
	for i, row := range x {
		c := y[i]
		count[c]++
		for j, v := range row {
			g.mean[c][j] += v
		}
	}
	n := len(x)
	for c := 0; c < 2; c++ {
		g.priors[c] = (float64(count[c]) + 1) / (float64(n) + 2)
		if count[c] == 0 {
			continue
		}
		for j := range g.mean[c] {
			g.mean[c][j] /= float64(count[c])
		}
	}
	for i, row := range x {
		c := y[i]
		for j, v := range row {
			d := v - g.mean[c][j]
			g.vari[c][j] += d * d
		}
	}
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			continue
		}
		for j := range g.vari[c] {
			g.vari[c][j] = g.vari[c][j]/float64(count[c]) + 1e-6
		}
	}
	return nil
}

func (g *GaussianNB) logLikelihood(c int, x []float64) float64 {
	ll := math.Log(g.priors[c])
	for j, v := range x {
		variance := g.vari[c][j]
		if variance == 0 {
			variance = 1e-6
		}
		d := v - g.mean[c][j]
		ll += -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
	}
	return ll
}

// Proba returns P(security|x).
func (g *GaussianNB) Proba(x []float64) float64 {
	if g.mean[0] == nil {
		return 0
	}
	l0 := g.logLikelihood(0, x)
	l1 := g.logLikelihood(1, x)
	m := math.Max(l0, l1)
	e0 := math.Exp(l0 - m)
	e1 := math.Exp(l1 - m)
	return e1 / (e0 + e1)
}

// Predict thresholds at 0.5.
func (g *GaussianNB) Predict(x []float64) int {
	if g.Proba(x) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}

// tanBins is the number of equal-frequency bins per feature.
const tanBins = 4

// discretizer bins each feature into tanBins equal-frequency bins.
type discretizer struct {
	cuts [][]float64 // per-feature ascending cut points
}

func fitDiscretizer(x [][]float64) *discretizer {
	dim := len(x[0])
	d := &discretizer{cuts: make([][]float64, dim)}
	vals := make([]float64, len(x))
	for j := 0; j < dim; j++ {
		for i, row := range x {
			vals[i] = row[j]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		var cuts []float64
		for b := 1; b < tanBins; b++ {
			q := sorted[len(sorted)*b/tanBins]
			if len(cuts) == 0 || q > cuts[len(cuts)-1] {
				cuts = append(cuts, q)
			}
		}
		d.cuts[j] = cuts
	}
	return d
}

func (d *discretizer) bin(j int, v float64) int {
	cuts := d.cuts[j]
	for b, c := range cuts {
		if v < c {
			return b
		}
	}
	return len(cuts)
}

func (d *discretizer) bins(j int) int { return len(d.cuts[j]) + 1 }

// TAN is a tree-augmented naive Bayes network: features are binned, a
// maximum-spanning tree over class-conditional mutual information links each
// feature to at most one feature parent (Chow-Liu), and inference multiplies
// the resulting conditional tables.
type TAN struct {
	disc   *discretizer
	priors [2]float64
	parent []int // parent feature index, -1 for the root
	// cpt[c][j] maps parentBin*bins(j)+bin(j) -> smoothed probability.
	cpt [2][][]float64
}

var _ ml.Classifier = (*TAN)(nil)

// Fit learns structure (Chow-Liu over conditional mutual information) and
// parameters.
func (t *TAN) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	t.disc = fitDiscretizer(x)
	dim := len(x[0])

	// Bin the whole matrix once.
	bx := make([][]int, len(x))
	for i, row := range x {
		bx[i] = make([]int, dim)
		for j, v := range row {
			bx[i][j] = t.disc.bin(j, v)
		}
	}

	// Class-conditional mutual information between feature pairs.
	mi := t.pairwiseCMI(bx, y, dim)

	// Maximum spanning tree (Prim) rooted at feature 0.
	t.parent = make([]int, dim)
	inTree := make([]bool, dim)
	best := make([]float64, dim)
	bestFrom := make([]int, dim)
	for j := range best {
		best[j] = -1
		bestFrom[j] = -1
		t.parent[j] = -1
	}
	inTree[0] = true
	for j := 1; j < dim; j++ {
		best[j] = mi[0][j]
		bestFrom[j] = 0
	}
	for added := 1; added < dim; added++ {
		pick := -1
		for j := 0; j < dim; j++ {
			if !inTree[j] && (pick == -1 || best[j] > best[pick]) {
				pick = j
			}
		}
		if pick == -1 {
			break
		}
		inTree[pick] = true
		t.parent[pick] = bestFrom[pick]
		for j := 0; j < dim; j++ {
			if !inTree[j] && mi[pick][j] > best[j] {
				best[j] = mi[pick][j]
				bestFrom[j] = pick
			}
		}
	}

	// Parameters.
	var count [2]int
	for _, c := range y {
		count[c]++
	}
	n := len(x)
	for c := 0; c < 2; c++ {
		t.priors[c] = (float64(count[c]) + 1) / (float64(n) + 2)
		t.cpt[c] = make([][]float64, dim)
		for j := 0; j < dim; j++ {
			pb := 1
			if t.parent[j] >= 0 {
				pb = t.disc.bins(t.parent[j])
			}
			t.cpt[c][j] = make([]float64, pb*t.disc.bins(j))
		}
	}
	for i, row := range bx {
		c := y[i]
		for j := 0; j < dim; j++ {
			pbin := 0
			if t.parent[j] >= 0 {
				pbin = row[t.parent[j]]
			}
			t.cpt[c][j][pbin*t.disc.bins(j)+row[j]]++
		}
	}
	for c := 0; c < 2; c++ {
		for j := 0; j < dim; j++ {
			bj := t.disc.bins(j)
			pb := len(t.cpt[c][j]) / bj
			for p := 0; p < pb; p++ {
				total := 0.0
				for b := 0; b < bj; b++ {
					total += t.cpt[c][j][p*bj+b]
				}
				for b := 0; b < bj; b++ {
					t.cpt[c][j][p*bj+b] = (t.cpt[c][j][p*bj+b] + 1) / (total + float64(bj))
				}
			}
		}
	}
	return nil
}

// pairwiseCMI estimates I(Xi;Xj|C) from binned data.
func (t *TAN) pairwiseCMI(bx [][]int, y []int, dim int) [][]float64 {
	mi := make([][]float64, dim)
	for i := range mi {
		mi[i] = make([]float64, dim)
	}
	n := float64(len(bx))
	for a := 0; a < dim; a++ {
		ba := t.disc.bins(a)
		for b := a + 1; b < dim; b++ {
			bb := t.disc.bins(b)
			joint := make([]float64, 2*ba*bb)
			margA := make([]float64, 2*ba)
			margB := make([]float64, 2*bb)
			margC := make([]float64, 2)
			for i, row := range bx {
				c := y[i]
				joint[(c*ba+row[a])*bb+row[b]]++
				margA[c*ba+row[a]]++
				margB[c*bb+row[b]]++
				margC[c]++
			}
			sum := 0.0
			for c := 0; c < 2; c++ {
				if margC[c] == 0 {
					continue
				}
				for va := 0; va < ba; va++ {
					for vb := 0; vb < bb; vb++ {
						pj := joint[(c*ba+va)*bb+vb] / n
						if pj == 0 {
							continue
						}
						pa := margA[c*ba+va] / margC[c]
						pb := margB[c*bb+vb] / margC[c]
						pc := margC[c] / n
						sum += pj * math.Log(pj/(pc*pa*pb))
					}
				}
			}
			mi[a][b] = sum
			mi[b][a] = sum
		}
	}
	return mi
}

// Proba returns P(security|x).
func (t *TAN) Proba(x []float64) float64 {
	if t.disc == nil {
		return 0
	}
	row := make([]int, len(x))
	for j, v := range x {
		row[j] = t.disc.bin(j, v)
	}
	ll := [2]float64{math.Log(t.priors[0]), math.Log(t.priors[1])}
	for j := range x {
		pbin := 0
		if t.parent[j] >= 0 {
			pbin = row[t.parent[j]]
		}
		bj := t.disc.bins(j)
		for c := 0; c < 2; c++ {
			ll[c] += math.Log(t.cpt[c][j][pbin*bj+row[j]])
		}
	}
	m := math.Max(ll[0], ll[1])
	e0 := math.Exp(ll[0] - m)
	e1 := math.Exp(ll[1] - m)
	return e1 / (e0 + e1)
}

// Predict thresholds at 0.5.
func (t *TAN) Predict(x []float64) int {
	if t.Proba(x) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}
