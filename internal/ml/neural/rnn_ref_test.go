package neural

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// refRNN is the RNN as it stood before the flat layout: nested weight
// slices, per-step allocations, a map of embedding gradients, and the full
// input projection on every predicted token. The bit-identity tests train
// it beside an RNN, so it must keep every operand and summation order.
type refRNN struct {
	RNN // Epochs and Seed only

	vocab *Vocab

	emb, wxh, whh    [][]float64
	bh, wout         []float64
	bout             float64
	gEmb, gWxh, gWhh [][]float64
	gBh, gWout       []float64
	gBout            float64
}

func refMatrix(rows, cols int, scale float64, rng *rand.Rand) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = (rng.Float64()*2 - 1) * scale
		}
	}
	return m
}

func (r *refRNN) fit(seqs [][]string, y []int, sampleW []float64) {
	if r.Epochs <= 0 {
		r.Epochs = 4
	}
	rng := rand.New(rand.NewSource(r.Seed + 101))
	r.vocab = BuildVocab(seqs, 2000)
	v := r.vocab.Size()
	r.emb = refMatrix(v, rnnEmbed, 0.1, rng)
	r.wxh = refMatrix(rnnHidden, rnnEmbed, 0.2, rng)
	r.whh = refMatrix(rnnHidden, rnnHidden, 0.2, rng)
	r.bh = make([]float64, rnnHidden)
	r.wout = make([]float64, rnnHidden)
	for j := range r.wout {
		r.wout[j] = (rng.Float64()*2 - 1) * 0.2
	}
	r.gEmb = refMatrix(v, rnnEmbed, 0, rng)
	r.gWxh = refMatrix(rnnHidden, rnnEmbed, 0, rng)
	r.gWhh = refMatrix(rnnHidden, rnnHidden, 0, rng)
	r.gBh = make([]float64, rnnHidden)
	r.gWout = make([]float64, rnnHidden)
	r.bout, r.gBout = 0, 0

	encoded := make([][]int, len(seqs))
	pos := 0
	for i, s := range seqs {
		ids := r.vocab.Encode(s)
		if len(ids) > rnnMaxLen {
			ids = ids[:rnnMaxLen]
		}
		encoded[i] = ids
		pos += y[i]
	}
	posWeight := 1.0
	if pos > 0 && pos < len(y) {
		posWeight = float64(len(y)-pos) / float64(pos)
		if posWeight < 0.25 {
			posWeight = 0.25
		}
		if posWeight > 4 {
			posWeight = 4
		}
	}
	for epoch := 0; epoch < r.Epochs; epoch++ {
		for _, i := range rng.Perm(len(encoded)) {
			w := 1.0
			if y[i] == 1 {
				w = posWeight
			}
			if sampleW != nil {
				w *= sampleW[i]
			}
			r.step(encoded[i], float64(y[i]), w)
		}
	}
}

func (r *refRNN) step(ids []int, target, weight float64) {
	if len(ids) == 0 {
		return
	}
	tlen := len(ids)
	hs := make([][]float64, tlen+1)
	hs[0] = make([]float64, rnnHidden)
	for t, id := range ids {
		h := make([]float64, rnnHidden)
		e := r.emb[id]
		prev := hs[t]
		for j := 0; j < rnnHidden; j++ {
			sum := r.bh[j]
			wx := r.wxh[j]
			for k := 0; k < rnnEmbed; k++ {
				sum += wx[k] * e[k]
			}
			wh := r.whh[j]
			for k := 0; k < rnnHidden; k++ {
				sum += wh[k] * prev[k]
			}
			h[j] = math.Tanh(sum)
		}
		hs[t+1] = h
	}
	last := hs[tlen]
	z := r.bout
	for j := 0; j < rnnHidden; j++ {
		z += r.wout[j] * last[j]
	}
	p := 1 / (1 + math.Exp(-z))
	dz := (p - target) * weight

	dWout := make([]float64, rnnHidden)
	dh := make([]float64, rnnHidden)
	for j := 0; j < rnnHidden; j++ {
		dWout[j] = dz * last[j]
		dh[j] = dz * r.wout[j]
	}
	dWxh := make([][]float64, rnnHidden)
	dWhh := make([][]float64, rnnHidden)
	for j := range dWxh {
		dWxh[j] = make([]float64, rnnEmbed)
		dWhh[j] = make([]float64, rnnHidden)
	}
	dBh := make([]float64, rnnHidden)
	dEmb := make(map[int][]float64)
	for t := tlen - 1; t >= 0; t-- {
		h := hs[t+1]
		prev := hs[t]
		e := r.emb[ids[t]]
		dRaw := make([]float64, rnnHidden)
		for j := 0; j < rnnHidden; j++ {
			dRaw[j] = dh[j] * (1 - h[j]*h[j])
		}
		de, ok := dEmb[ids[t]]
		if !ok {
			de = make([]float64, rnnEmbed)
			dEmb[ids[t]] = de
		}
		nextDh := make([]float64, rnnHidden)
		for j := 0; j < rnnHidden; j++ {
			g := dRaw[j]
			dBh[j] += g
			wx := dWxh[j]
			for k := 0; k < rnnEmbed; k++ {
				wx[k] += g * e[k]
				de[k] += g * r.wxh[j][k]
			}
			wh := dWhh[j]
			for k := 0; k < rnnHidden; k++ {
				wh[k] += g * prev[k]
				nextDh[k] += g * r.whh[j][k]
			}
		}
		dh = nextDh
	}
	clip := func(g float64) float64 {
		if g > rnnClip {
			return rnnClip
		}
		if g < -rnnClip {
			return -rnnClip
		}
		return g
	}
	adagrad := func(w, g []float64, acc []float64) {
		for j := range w {
			gj := clip(g[j])
			acc[j] += gj * gj
			w[j] -= rnnLR * gj / (math.Sqrt(acc[j]) + 1e-8)
		}
	}
	for j := 0; j < rnnHidden; j++ {
		adagrad(r.wxh[j], dWxh[j], r.gWxh[j])
		adagrad(r.whh[j], dWhh[j], r.gWhh[j])
	}
	adagrad(r.bh, dBh, r.gBh)
	adagrad(r.wout, dWout, r.gWout)
	gb := clip(dz)
	r.gBout += gb * gb
	r.bout -= rnnLR * gb / (math.Sqrt(r.gBout) + 1e-8)
	for id, de := range dEmb {
		adagrad(r.emb[id], de, r.gEmb[id])
	}
}

func (r *refRNN) proba(seq []string) float64 {
	ids := r.vocab.Encode(seq)
	if len(ids) > rnnMaxLen {
		ids = ids[:rnnMaxLen]
	}
	h := make([]float64, rnnHidden)
	next := make([]float64, rnnHidden)
	for _, id := range ids {
		e := r.emb[id]
		for j := 0; j < rnnHidden; j++ {
			sum := r.bh[j]
			wx := r.wxh[j]
			for k := 0; k < rnnEmbed; k++ {
				sum += wx[k] * e[k]
			}
			wh := r.whh[j]
			for k := 0; k < rnnHidden; k++ {
				sum += wh[k] * h[k]
			}
			next[j] = math.Tanh(sum)
		}
		h, next = next, h
	}
	z := r.bout
	for j := 0; j < rnnHidden; j++ {
		z += r.wout[j] * h[j]
	}
	return 1 / (1 + math.Exp(-z))
}

// sameBits reports the first index where a flat buffer differs bitwise from
// the row-major reading of a nested one, or -1.
func sameBits(flat []float64, nested [][]float64) int {
	k := 0
	for _, row := range nested {
		for _, v := range row {
			if k >= len(flat) || math.Float64bits(flat[k]) != math.Float64bits(v) {
				return k
			}
			k++
		}
	}
	if k != len(flat) {
		return k
	}
	return -1
}

// tokenTask builds variable-length token sequences over a vocabulary of
// size words, with the label tied to two marker tokens.
func tokenTask(n, words, maxLen int, seed int64) ([][]string, []int) {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([][]string, n)
	y := make([]int, n)
	for i := range seqs {
		seq := make([]string, rng.Intn(maxLen+1))
		for j := range seq {
			seq[j] = "w" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(words/26+1)))
		}
		if len(seq) > 0 && rng.Intn(3) == 0 {
			seq[rng.Intn(len(seq))] = "MARKER"
			y[i] = 1
		}
		seqs[i] = seq
	}
	return seqs, y
}

// checkAgainstRef fits r and ref on the same data and compares every weight,
// accumulator and prediction bit for bit.
func checkAgainstRef(t *testing.T, name string, r *RNN, ref *refRNN, seqs [][]string, y []int, w []float64, probe [][]string) {
	t.Helper()
	if err := r.FitTokensWeighted(seqs, y, w); err != nil {
		t.Fatal(err)
	}
	ref.fit(seqs, y, w)
	for _, c := range []struct {
		what   string
		flat   []float64
		nested [][]float64
	}{
		{"emb", r.emb, ref.emb}, {"wxh", r.wxh, ref.wxh}, {"whh", r.whh, ref.whh},
		{"bh", r.bh, [][]float64{ref.bh}}, {"wout", r.wout, [][]float64{ref.wout}},
		{"gEmb", r.gEmb, ref.gEmb}, {"gWxh", r.gWxh, ref.gWxh}, {"gWhh", r.gWhh, ref.gWhh},
		{"gBh", r.gBh, [][]float64{ref.gBh}}, {"gWout", r.gWout, [][]float64{ref.gWout}},
		{"bout", []float64{r.bout, r.gBout}, [][]float64{{ref.bout, ref.gBout}}},
	} {
		if k := sameBits(c.flat, c.nested); k >= 0 {
			t.Fatalf("%s: %s differs from the reference at flat index %d", name, c.what, k)
		}
	}
	// The first pass fills the memo, the second is served from it.
	for pass, what := range []string{"miss", "hit"} {
		for i, s := range probe {
			got, want := r.ProbaTokens(s), ref.proba(s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ProbaTokens(probe %d, len %d, %s) = %v, reference %v", name, i, len(s), what, got, want)
			}
		}
		if n, want := len(r.memo.p), distinctInputs(r, probe); n != want {
			t.Fatalf("%s: memo holds %d sequences after pass %d, want the %d distinct truncated id sequences", name, n, pass, want)
		}
	}
}

// distinctInputs counts the distinct truncated id sequences among seqs:
// the forward passes a memo of r must run.
func distinctInputs(r *RNN, seqs [][]string) int {
	seen := map[string]bool{}
	for _, s := range seqs {
		ids := r.vocab.Encode(s)
		seen[fmt.Sprint(ids[:min(len(ids), rnnMaxLen)])] = true
	}
	return len(seen)
}

func TestRNNBitIdenticalToReference(t *testing.T) {
	type fitCase struct {
		name  string
		hyper RNN
		seqs  [][]string
		y     []int
		w     []float64
		probe [][]string
	}
	var cases []fitCase
	long := strings.Fields(strings.Repeat("MARKER wa wb never-seen ", 60)) // 240 tokens
	for _, seed := range []int64{1, 2, 3} {
		seqs, y := tokenTask(120, 80, 50, seed)
		seqs = append(seqs, nil, long, []string{"never-seen"}) // empty, > rnnMaxLen, all unknown
		y = append(y, 0, 1, 0)
		probe, _ := tokenTask(40, 120, 70, seed+100) // words outside the training vocabulary
		probe = append(probe, nil, long, []string{"never-seen", "also-unknown"})
		cases = append(cases, fitCase{fmt.Sprintf("seed %d", seed), RNN{Epochs: 2, Seed: seed}, seqs, y, nil, probe})
	}
	seqs, y := tokenTask(100, 60, 40, 4)
	w := make([]float64, len(seqs))
	rng := rand.New(rand.NewSource(5))
	for i := range w {
		w[i] = rng.Float64() * 2
	}
	w[0] = 0
	cases = append(cases, fitCase{"weighted", RNN{Epochs: 2, Seed: 6}, seqs, y, w, seqs})
	for _, c := range cases {
		r, ref := c.hyper, &refRNN{RNN: c.hyper}
		checkAgainstRef(t, c.name, &r, ref, c.seqs, c.y, c.w, c.probe)
	}
}

// TestRNNRefitLargerVocab fits one RNN twice, the second time on a larger
// vocabulary: stale scratch buffers or a stale projection table show up as
// a mismatch or a panic.
func TestRNNRefitLargerVocab(t *testing.T) {
	small, ys := tokenTask(60, 20, 20, 7)
	large, yl := tokenTask(120, 200, 60, 8)
	hyper := RNN{Epochs: 2, Seed: 9}
	r, ref := hyper, &refRNN{RNN: hyper}
	checkAgainstRef(t, "first fit", &r, ref, small, ys, nil, small)
	first := r.vocab.Size()
	checkAgainstRef(t, "second fit", &r, ref, large, yl, nil, append(large, small...))
	if r.vocab.Size() <= first {
		t.Fatalf("second vocabulary has %d words, not more than the first's %d", r.vocab.Size(), first)
	}
}

func TestRNNStepAllocatesNothing(t *testing.T) {
	seqs, y := tokenTask(50, 40, 30, 10)
	r := &RNN{Epochs: 1, Seed: 11}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, s := range seqs {
		if len(s) > len(ids) {
			ids = r.vocab.Encode(s)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { r.step(ids, 1, 1) }); allocs != 0 {
		t.Errorf("warmed step allocated %v times, want 0", allocs)
	}
}

// TestRNNMemoSharesOneKey scores sequences that differ only in unknown
// tokens, or only after rnnMaxLen: one forward pass serves them all.
func TestRNNMemoSharesOneKey(t *testing.T) {
	seqs, y := tokenTask(80, 40, 30, 14)
	hyper := RNN{Epochs: 1, Seed: 15}
	r, ref := hyper, &refRNN{RNN: hyper}
	checkAgainstRef(t, "fit", &r, ref, seqs, y, nil, nil)
	known := seqs[0][:4]
	var prefix []string // rnnMaxLen known tokens
	for _, s := range seqs {
		prefix = append(prefix, s...)
	}
	prefix = prefix[:rnnMaxLen:rnnMaxLen]
	for _, group := range [][][]string{
		{append([]string{"never-seen"}, known...), append([]string{"also-unknown"}, known...)},
		{append(prefix, "MARKER"), append(prefix, known...)},
	} {
		before := len(r.memo.p)
		for i, s := range group {
			got, want := r.ProbaTokens(s), ref.proba(s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ProbaTokens(%q) = %v, reference %v (sequence %d of its key)", s, got, want, i)
			}
		}
		if n := len(r.memo.p) - before; n != 1 {
			t.Fatalf("%q added %d memo entries, want 1", group, n)
		}
	}
}

// TestRNNRefitResetsMemo refits one RNN on the same sequences with other
// labels, so every id sequence keeps its key: a memo kept from the first
// fit would serve the first model's probabilities.
func TestRNNRefitResetsMemo(t *testing.T) {
	seqs, y := tokenTask(80, 40, 30, 16)
	probe := append(seqs, nil, []string{"never-seen"})
	hyper := RNN{Epochs: 2, Seed: 17}
	r, ref := hyper, &refRNN{RNN: hyper}
	checkAgainstRef(t, "first fit", &r, ref, seqs, y, nil, probe)
	flipped := make([]int, len(y))
	for i := range y {
		flipped[i] = 1 - y[i]
	}
	r.Seed, ref.Seed = 18, 18
	checkAgainstRef(t, "refit", &r, ref, seqs, flipped, nil, probe)
}

// TestRNNRefitMatchesFresh fits one RNN on set A and refits it on set B:
// every weight and accumulator a fit trains, the output bias included,
// must start over, so the refit scores B bit for bit like a fresh RNN of
// the same config fitted on B alone.
func TestRNNRefitMatchesFresh(t *testing.T) {
	seqsA, yA := tokenTask(80, 40, 30, 16)
	seqsB, yB := markerTask(120, 5)
	hyper := RNN{Epochs: 2, Seed: 21}
	refit, fresh := hyper, hyper
	if err := refit.FitTokens(seqsA, yA); err != nil {
		t.Fatal(err)
	}
	if err := refit.FitTokens(seqsB, yB); err != nil {
		t.Fatal(err)
	}
	if err := fresh.FitTokens(seqsB, yB); err != nil {
		t.Fatal(err)
	}
	for i, s := range seqsB {
		got, want := refit.ProbaTokens(s), fresh.ProbaTokens(s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sequence %d: refit ProbaTokens = %v, fresh fit %v", i, got, want)
		}
	}
}

// TestRNNConcurrentProba runs ProbaTokens from several goroutines on a
// cold memo, so the same sequences miss, run and insert at once and later
// calls hit; under the race detector it proves prediction reads the model
// only and the memo is guarded.
func TestRNNConcurrentProba(t *testing.T) {
	seqs, y := tokenTask(80, 40, 30, 12)
	hyper := RNN{Epochs: 1, Seed: 13}
	r, ref := hyper, &refRNN{RNN: hyper}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	ref.fit(seqs, y, nil)
	want := make([]float64, len(seqs))
	for i, s := range seqs {
		want[i] = ref.proba(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range seqs {
				i := (i + g*len(seqs)/4) % len(seqs)
				if got := r.ProbaTokens(seqs[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d: ProbaTokens(%d) = %v, reference %v", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, want := len(r.memo.p), distinctInputs(&r, seqs); n != want {
		t.Fatalf("memo holds %d sequences, want %d", n, want)
	}
}

func TestRNNMemoHitAllocatesNothing(t *testing.T) {
	seqs, y := tokenTask(50, 40, 30, 21)
	r := &RNN{Epochs: 1, Seed: 22}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	long := strings.Fields(strings.Repeat("MARKER wa wb never-seen ", 64)) // 256 tokens, cut to rnnMaxLen
	p := r.ProbaTokens(long)
	if len(r.memo.p) != 1 {
		t.Fatalf("memo holds %d sequences after one miss, want 1", len(r.memo.p))
	}
	if allocs := testing.AllocsPerRun(20, func() { benchProba = r.ProbaTokens(long) }); allocs != 0 {
		t.Errorf("memo hit of %d tokens allocated %v times, want 0", len(long), allocs)
	}
	if math.Float64bits(benchProba) != math.Float64bits(p) {
		t.Errorf("hit returned %v, miss %v", benchProba, p)
	}
}

// TestRNNMemoBudget fills the memo's budget through its unexported fields:
// an entry that fits is inserted, one byte more is not, and both still
// score bit-identically to the reference.
func TestRNNMemoBudget(t *testing.T) {
	seqs, y := tokenTask(50, 40, 30, 23)
	hyper := RNN{Epochs: 1, Seed: 24}
	r, ref := hyper, &refRNN{RNN: hyper}
	if err := r.FitTokens(seqs, y); err != nil {
		t.Fatal(err)
	}
	ref.fit(seqs, y, nil)
	for _, c := range []struct {
		seq    []string
		spare  int // budget bytes left beyond the entry's cost
		insert bool
	}{
		{seqs[0], 0, true},
		{seqs[1], -1, false},
	} {
		cost := 2*min(len(c.seq), rnnMaxLen) + memoEntryBytes
		r.memo.used = memoBudget - cost - c.spare
		before, used := len(r.memo.p), r.memo.used
		got, want := r.ProbaTokens(c.seq), ref.proba(c.seq)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ProbaTokens = %v, reference %v", got, want)
		}
		if inserted := len(r.memo.p) > before; inserted != c.insert {
			t.Fatalf("with %d bytes spare: inserted = %v, want %v", c.spare, inserted, c.insert)
		}
		if c.insert {
			used += cost
		}
		if r.memo.used != used {
			t.Fatalf("with %d bytes spare: memo charged %d bytes, want %d", c.spare, r.memo.used, used)
		}
	}
}

func TestRNNFitRejectsLengthMismatch(t *testing.T) {
	seqs := [][]string{{"a"}, {"b"}, {"c"}}
	for _, tc := range []struct {
		name string
		y    []int
		w    []float64
	}{
		{"short labels", []int{0, 1}, nil},
		{"long labels", []int{0, 1, 0, 1}, nil},
		{"no labels", nil, nil},
		{"short weights", []int{0, 1, 0}, []float64{1, 1}},
		{"long weights", []int{0, 1, 0}, []float64{1, 1, 1, 1}},
		{"empty weights", []int{0, 1, 0}, []float64{}},
	} {
		r := &RNN{Epochs: 1}
		if err := r.FitTokensWeighted(seqs, tc.y, tc.w); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if r.ProbaTokens([]string{"a"}) != 0 {
			t.Errorf("%s: a rejected fit left a usable model", tc.name)
		}
	}
}

var benchProba float64

// BenchmarkRNNFit trains three epochs on 300 sequences of up to 160 tokens,
// the shape of one Table IV training split.
func BenchmarkRNNFit(b *testing.B) {
	seqs, y := tokenTask(300, 300, 160, 1)
	b.ReportAllocs()
	for b.Loop() {
		r := &RNN{Epochs: 3, Seed: 1}
		if err := r.FitTokens(seqs, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRNNPredict scores 300 sequences of up to 160 tokens on an
// empty memo, so every distinct sequence runs its forward pass.
func BenchmarkRNNPredict(b *testing.B) {
	seqs, y := tokenTask(300, 300, 160, 1)
	r := &RNN{Epochs: 1, Seed: 1}
	if err := r.FitTokens(seqs, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		r.memo = &memo{p: make(map[string]float64)}
		for _, s := range seqs {
			benchProba = r.ProbaTokens(s)
		}
	}
}
