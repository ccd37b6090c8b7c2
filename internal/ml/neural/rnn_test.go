package neural

import (
	"errors"
	"math/rand"
	"testing"

	"patchdb/internal/ml"
)

func TestVocab(t *testing.T) {
	seqs := [][]string{{"a", "b", "a"}, {"a", "c"}}
	v := BuildVocab(seqs, 0)
	if v.Size() != 4 { // <unk> + a,b,c
		t.Fatalf("size = %d", v.Size())
	}
	if v.ID("a") == 0 || v.ID("zzz") != 0 {
		t.Errorf("ids: a=%d zzz=%d", v.ID("a"), v.ID("zzz"))
	}
	// Most frequent token gets the smallest non-unk id.
	if v.ID("a") != 1 {
		t.Errorf("most frequent token id = %d", v.ID("a"))
	}
	enc := v.Encode([]string{"a", "zzz", "c"})
	if enc[0] != v.ID("a") || enc[1] != 0 || enc[2] != v.ID("c") {
		t.Errorf("encode = %v", enc)
	}
}

func TestVocabMaxSize(t *testing.T) {
	seqs := [][]string{{"a", "a", "b", "b", "c"}}
	v := BuildVocab(seqs, 2)
	if v.Size() != 3 { // <unk> + 2 kept
		t.Fatalf("size = %d", v.Size())
	}
	if v.ID("c") != 0 {
		t.Error("least frequent token survived the cap")
	}
}

func TestVocabDeterminism(t *testing.T) {
	seqs := [][]string{{"x", "y"}, {"z", "y"}}
	v1 := BuildVocab(seqs, 0)
	v2 := BuildVocab(seqs, 0)
	for _, w := range []string{"x", "y", "z"} {
		if v1.ID(w) != v2.ID(w) {
			t.Fatalf("unstable id for %q", w)
		}
	}
}

// markerTask builds sequences where the label depends on whether the marker
// token appears — the simplest context task an RNN must solve.
func markerTask(n int, seed int64) ([][]string, []int) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"if", "(", ")", "VAR", "NUM", ";", "return"}
	seqs := make([][]string, n)
	y := make([]int, n)
	for i := range seqs {
		ln := 5 + rng.Intn(10)
		seq := make([]string, ln)
		for j := range seq {
			seq[j] = words[rng.Intn(len(words))]
		}
		if i%2 == 0 {
			seq[rng.Intn(ln)] = "MARKER"
			y[i] = 1
		}
		seqs[i] = seq
	}
	return seqs, y
}

func TestRNNLearnsMarker(t *testing.T) {
	seqs, y := markerTask(400, 1)
	r := &RNN{Epochs: 12, Seed: 2}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	testSeqs, testY := markerTask(200, 3)
	hits := 0
	for i, s := range testSeqs {
		if r.PredictTokens(s) == testY[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(testSeqs)); acc < 0.9 {
		t.Errorf("marker-task accuracy = %.2f", acc)
	}
}

func TestRNNOrderSensitivity(t *testing.T) {
	// Label depends on whether "A" precedes "B": requires recurrent state,
	// not just bag-of-tokens.
	rng := rand.New(rand.NewSource(4))
	gen := func(n int) ([][]string, []int) {
		seqs := make([][]string, n)
		y := make([]int, n)
		for i := range seqs {
			filler := make([]string, 3+rng.Intn(5))
			for j := range filler {
				filler[j] = "x"
			}
			if i%2 == 0 {
				seqs[i] = append(append([]string{"A"}, filler...), "B")
				y[i] = 1
			} else {
				seqs[i] = append(append([]string{"B"}, filler...), "A")
			}
		}
		return seqs, y
	}
	seqs, y := gen(400)
	r := &RNN{Epochs: 25, Seed: 5}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	testSeqs, testY := gen(200)
	hits := 0
	for i, s := range testSeqs {
		if r.PredictTokens(s) == testY[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(testSeqs)); acc < 0.85 {
		t.Errorf("order-task accuracy = %.2f (bag-of-tokens cannot exceed 0.5)", acc)
	}
}

func TestRNNEmpty(t *testing.T) {
	r := &RNN{}
	if err := r.FitTokens(nil, nil); !errors.Is(err, ml.ErrEmptyDataset) {
		t.Errorf("err = %v", err)
	}
	if r.ProbaTokens([]string{"a"}) != 0 {
		t.Error("unfit proba != 0")
	}
}

func TestRNNEmptySequence(t *testing.T) {
	seqs, y := markerTask(50, 6)
	seqs = append(seqs, nil) // an empty sequence must not panic
	y = append(y, 0)
	r := &RNN{Epochs: 2, Seed: 7}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	_ = r.ProbaTokens(nil)
}

func TestRNNTruncation(t *testing.T) {
	long := make([]string, 5000)
	for i := range long {
		long[i] = "x"
	}
	r := &RNN{Epochs: 1, Seed: 8}
	if err := r.FitTokens([][]string{long, {"MARKER"}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	_ = r.ProbaTokens(long) // must not blow up on long input
}

func TestRNNDeterminism(t *testing.T) {
	seqs, y := markerTask(100, 9)
	r1 := &RNN{Epochs: 3, Seed: 10}
	r2 := &RNN{Epochs: 3, Seed: 10}
	if err := r1.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	if err := r2.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs[:20] {
		if r1.ProbaTokens(s) != r2.ProbaTokens(s) {
			t.Fatal("same seed, different model")
		}
	}
}

func TestRNNWeightedSamples(t *testing.T) {
	// Zero-weighted contradictory samples must not prevent learning.
	seqs, y := markerTask(200, 11)
	flipped := make([]int, len(y))
	for i, v := range y {
		flipped[i] = 1 - v
	}
	all := append(append([][]string{}, seqs...), seqs...)
	labels := append(append([]int{}, y...), flipped...)
	weights := make([]float64, len(all))
	for i := range weights {
		if i < len(seqs) {
			weights[i] = 1
		} // flipped copies get weight 0
	}
	r := &RNN{Epochs: 10, Seed: 12}
	if err := r.FitTokensWeighted(all, labels, weights); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, s := range seqs {
		if r.PredictTokens(s) == y[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(seqs)); acc < 0.85 {
		t.Errorf("weighted training accuracy = %.2f", acc)
	}
}
