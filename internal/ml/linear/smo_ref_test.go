package linear

import (
	"math"
	"math/rand"
	"testing"
)

// refSMOFit is SMO.Fit as it stood before the Gram cache: every kernel
// value is a fresh dot product. The bit-identity tests compare against it,
// so it must keep its operands and summation order exactly.
func refSMOFit(seed int64, x [][]float64, y []int) ([]float64, float64) {
	rng := rand.New(rand.NewSource(seed + 23))
	idx := rng.Perm(len(x))
	if len(idx) > smoMaxRows {
		idx = idx[:smoMaxRows]
	}
	norm := fitStandardizer(x)
	xs := make([][]float64, len(idx))
	ys := make([]float64, len(idx))
	for k, i := range idx {
		xs[k] = norm.apply(x[i])
		ys[k] = float64(2*y[i] - 1)
	}
	n := len(xs)
	alpha := make([]float64, n)
	b := 0.0
	f := func(i int) float64 {
		sum := b
		for k := 0; k < n; k++ {
			if alpha[k] != 0 {
				sum += alpha[k] * ys[k] * dot(xs[k], xs[i])
			}
		}
		return sum
	}
	passes := 0
	for passes < smoPasses {
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
				eta := 2*dot(xs[i], xs[j]) - dot(xs[i], xs[i]) - dot(xs[j], xs[j])
				if eta >= 0 {
					continue
				}
				alpha[j] = aj - ys[j]*(ei-ej)/eta
				alpha[j] = math.Min(hi, math.Max(lo, alpha[j]))
				if math.Abs(alpha[j]-aj) < 1e-5 {
					continue
				}
				alpha[i] = ai + ys[i]*ys[j]*(aj-alpha[j])
				b1 := b - ei - ys[i]*(alpha[i]-ai)*dot(xs[i], xs[i]) - ys[j]*(alpha[j]-aj)*dot(xs[i], xs[j])
				b2 := b - ej - ys[i]*(alpha[i]-ai)*dot(xs[i], xs[j]) - ys[j]*(alpha[j]-aj)*dot(xs[j], xs[j])
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
	w := make([]float64, len(xs[0]))
	for k := 0; k < n; k++ {
		if alpha[k] != 0 {
			for j, v := range xs[k] {
				w[j] += alpha[k] * ys[k] * v
			}
		}
	}
	return w, b
}

// noisyRows is a 12-dimensional problem with label noise, so SMO runs many
// passes with alphas at both bounds.
func noisyRows(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, 12)
		for j := range row {
			row[j] = rng.NormFloat64() * float64(j+1)
		}
		// A count-like column, as in the real feature vectors.
		row[11] = float64(rng.Intn(5))
		x[i] = row
		if row[0]-row[1]/2+row[2]/3+rng.NormFloat64() > 0 {
			y[i] = 1
		}
	}
	return x, y
}

func TestSMOBitIdenticalToReference(t *testing.T) {
	// The subsampled case draws from the 3-dimensional, nearly separable
	// problem: the noisy one takes far more passes over smoMaxRows rows
	// in the reference, which recomputes every dot product.
	nearlySeparable := func(n int, seed int64) ([][]float64, []int) { return linearly(n, seed, 0) }
	cases := []struct {
		name  string
		rows  int
		data  func(int, int64) ([][]float64, []int)
		seeds []int64
	}{
		{"full", 150, noisyRows, []int64{1, 2, 3, 4, 5}},
		{"subsampled", smoMaxRows + 50, nearlySeparable, []int64{6, 7}},
		{"two rows", 2, noisyRows, []int64{9}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			x, y := tc.data(tc.rows, seed*31)
			s := &SMO{Seed: seed}
			if err := s.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			w, b := refSMOFit(seed, x, y)
			if math.Float64bits(s.b) != math.Float64bits(b) {
				t.Errorf("%s seed %d: b = %v, reference %v", tc.name, seed, s.b, b)
			}
			for j := range w {
				if math.Float64bits(s.w[j]) != math.Float64bits(w[j]) {
					t.Errorf("%s seed %d: w[%d] = %v, reference %v", tc.name, seed, j, s.w[j], w[j])
				}
			}
		}
	}
}

func TestSMOOneRow(t *testing.T) {
	s := &SMO{Seed: 1}
	if err := s.Fit([][]float64{{1, 2, 3}}, []int{1}); err != nil {
		t.Fatal(err)
	}
	for j, v := range s.w {
		if v != 0 {
			t.Errorf("w[%d] = %v, want 0", j, v)
		}
	}
	if s.b != 0 {
		t.Errorf("b = %v, want 0", s.b)
	}
	if p := s.Proba([]float64{1, 2, 3}); p != 0.5 {
		t.Errorf("proba = %v, want 0.5 for the zero model", p)
	}
}

var benchSMO *SMO

// BenchmarkSMOFit fits SMO on a 150-row problem, the scale of one
// Table III training cell.
func BenchmarkSMOFit(b *testing.B) {
	x, y := noisyRows(150, 1)
	b.ReportAllocs()
	for b.Loop() {
		benchSMO = &SMO{Seed: 1}
		if err := benchSMO.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
