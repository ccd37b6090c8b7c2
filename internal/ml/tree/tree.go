// Package tree implements decision-tree classifiers: CART decision trees,
// random forests (the paper's strongest traditional model), and REPTree
// (reduced-error-pruning trees, one of the ten Weka classifiers used for
// uncertainty-based labeling in Table III).
package tree

import (
	"math"
	"math/rand"
	"sort"

	"patchdb/internal/ml"
	"patchdb/internal/par"
)

// Tree is a CART binary decision tree with Gini impurity splits.
type Tree struct {
	// MaxDepth bounds tree depth (<=0 means unbounded).
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf.
	MinLeaf int
	// MaxFeatures limits how many randomly chosen features are considered
	// per split (<=0 means all; random forests set sqrt(d)).
	MaxFeatures int
	// Rand is the randomness source for feature subsampling; nil means a
	// deterministic default seed.
	Rand *rand.Rand

	root *node
}

var _ ml.Classifier = (*Tree)(nil)

type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	leaf      bool
	proba     float64 // P(positive) at a leaf
}

// Fit grows the tree.
func (t *Tree) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	if t.MinLeaf <= 0 {
		t.MinLeaf = 1
	}
	if t.Rand == nil {
		t.Rand = rand.New(rand.NewSource(1))
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(x, y, idx, 0)
	return nil
}

func (t *Tree) grow(x [][]float64, y []int, idx []int, depth int) *node {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	proba := float64(pos) / float64(len(idx))
	if pos == 0 || pos == len(idx) ||
		(t.MaxDepth > 0 && depth >= t.MaxDepth) || len(idx) < 2*t.MinLeaf {
		return &node{leaf: true, proba: proba}
	}
	feature, threshold, ok := t.bestSplit(x, y, idx)
	if !ok {
		return &node{leaf: true, proba: proba}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.MinLeaf || len(right) < t.MinLeaf {
		return &node{leaf: true, proba: proba}
	}
	return &node{
		feature:   feature,
		threshold: threshold,
		left:      t.grow(x, y, left, depth+1),
		right:     t.grow(x, y, right, depth+1),
	}
}

// bestSplit scans candidate features for the split minimizing weighted Gini
// impurity. Features are sorted once per call; thresholds are midpoints
// between consecutive distinct values.
func (t *Tree) bestSplit(x [][]float64, y []int, idx []int) (feature int, threshold float64, ok bool) {
	dim := len(x[0])
	candidates := make([]int, dim)
	for j := range candidates {
		candidates[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < dim {
		t.Rand.Shuffle(dim, func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		candidates = candidates[:t.MaxFeatures]
	}

	bestGini := math.Inf(1)
	type pair struct {
		v float64
		y int
	}
	pairs := make([]pair, len(idx))
	totalPos := 0
	for _, i := range idx {
		totalPos += y[i]
	}
	n := float64(len(idx))

	for _, j := range candidates {
		for k, i := range idx {
			pairs[k] = pair{x[i][j], y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		leftPos, leftN := 0, 0
		for k := 0; k < len(pairs)-1; k++ {
			leftPos += pairs[k].y
			leftN++
			if pairs[k].v == pairs[k+1].v {
				continue
			}
			if leftN < t.MinLeaf || len(pairs)-leftN < t.MinLeaf {
				continue
			}
			rightPos := totalPos - leftPos
			rightN := len(pairs) - leftN
			g := gini(leftPos, leftN)*float64(leftN)/n + gini(rightPos, rightN)*float64(rightN)/n
			if g < bestGini {
				bestGini = g
				feature = j
				threshold = (pairs[k].v + pairs[k+1].v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// Proba returns the leaf probability of the positive class.
func (t *Tree) Proba(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.proba
}

// Predict thresholds Proba at 0.5.
func (t *Tree) Predict(x []float64) int {
	if t.Proba(x) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}

// Depth returns the depth of the grown tree (0 for a single leaf).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Forest is a random forest: bagged CART trees with per-split feature
// subsampling, trained in parallel.
type Forest struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// MaxDepth bounds each tree (default 12).
	MaxDepth int
	// MinLeaf per tree (default 2).
	MinLeaf int
	// Seed drives all randomness deterministically.
	Seed int64

	members []*Tree
}

var _ ml.Classifier = (*Forest)(nil)

// Fit trains the ensemble. Trees are grown on GOMAXPROCS workers, each
// from an independent deterministic sub-seed.
func (f *Forest) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	if f.Trees <= 0 {
		f.Trees = 50
	}
	if f.MaxDepth == 0 {
		f.MaxDepth = 12
	}
	if f.MinLeaf <= 0 {
		f.MinLeaf = 2
	}
	dim := len(x[0])
	maxFeatures := int(math.Ceil(math.Sqrt(float64(dim))))

	f.members = make([]*Tree, f.Trees)
	_ = par.For(nil, f.Trees, 0, func(_, m int) {
		rng := rand.New(rand.NewSource(f.Seed + int64(m)*7919 + 1))
		// Bootstrap sample.
		bx := make([][]float64, len(x))
		by := make([]int, len(y))
		for i := range bx {
			j := rng.Intn(len(x))
			bx[i] = x[j]
			by[i] = y[j]
		}
		t := &Tree{MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf, MaxFeatures: maxFeatures, Rand: rng}
		_ = t.Fit(bx, by) // bx is non-empty by construction
		f.members[m] = t
	})
	return nil
}

// Proba averages member probabilities.
func (f *Forest) Proba(x []float64) float64 {
	if len(f.members) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range f.members {
		sum += t.Proba(x)
	}
	return sum / float64(len(f.members))
}

// Predict thresholds Proba at 0.5.
func (f *Forest) Predict(x []float64) int {
	if f.Proba(x) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}

// REPTree is a depth-limited CART tree followed by reduced-error pruning on
// an internal validation split, mirroring Weka's REPTree.
type REPTree struct {
	MaxDepth int
	MinLeaf  int
	// PruneFrac is the fraction of training data held out for pruning
	// (default 0.25).
	PruneFrac float64
	Seed      int64

	tree *Tree
}

var _ ml.Classifier = (*REPTree)(nil)

// Fit grows then prunes.
func (r *REPTree) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return ml.ErrEmptyDataset
	}
	if r.PruneFrac <= 0 || r.PruneFrac >= 1 {
		r.PruneFrac = 0.25
	}
	if r.MaxDepth == 0 {
		r.MaxDepth = 10
	}
	rng := rand.New(rand.NewSource(r.Seed + 13))
	order := rng.Perm(len(x))
	cut := int(float64(len(x)) * (1 - r.PruneFrac))
	if cut < 1 {
		cut = len(x)
	}
	var gx, px [][]float64
	var gy, py []int
	for i, j := range order {
		if i < cut {
			gx = append(gx, x[j])
			gy = append(gy, y[j])
		} else {
			px = append(px, x[j])
			py = append(py, y[j])
		}
	}
	t := &Tree{MaxDepth: r.MaxDepth, MinLeaf: r.MinLeaf, Rand: rng}
	if err := t.Fit(gx, gy); err != nil {
		return err
	}
	if len(px) > 0 {
		pruneNode(t.root, px, py, indices(len(px)))
	}
	r.tree = t
	return nil
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pruneNode replaces an internal node by a leaf whenever doing so does not
// increase error on the pruning set routed to it.
func pruneNode(n *node, px [][]float64, py []int, idx []int) (pos, total int) {
	for _, i := range idx {
		pos += py[i]
	}
	total = len(idx)
	if n == nil || n.leaf {
		return pos, total
	}
	var left, right []int
	for _, i := range idx {
		if px[i][n.feature] <= n.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	pruneNode(n.left, px, py, left)
	pruneNode(n.right, px, py, right)
	if total == 0 {
		return 0, 0
	}
	// Errors if kept as subtree vs collapsed to majority leaf.
	subtreeErr := 0
	for _, i := range idx {
		pred := ml.NonSecurity
		if probaAt(n, px[i]) >= 0.5 {
			pred = ml.Security
		}
		if pred != py[i] {
			subtreeErr++
		}
	}
	leafProba := float64(pos) / float64(total)
	leafPred := ml.NonSecurity
	if leafProba >= 0.5 {
		leafPred = ml.Security
	}
	leafErr := 0
	for _, i := range idx {
		if leafPred != py[i] {
			leafErr++
		}
	}
	if leafErr <= subtreeErr {
		n.leaf = true
		n.proba = leafProba
		n.left, n.right = nil, nil
	}
	return pos, total
}

func probaAt(n *node, x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.proba
}

// Proba delegates to the pruned tree.
func (r *REPTree) Proba(x []float64) float64 {
	if r.tree == nil {
		return 0
	}
	return r.tree.Proba(x)
}

// Predict thresholds Proba at 0.5.
func (r *REPTree) Predict(x []float64) int {
	if r.Proba(x) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}
