// Package neural implements the recurrent neural network classifier used in
// PatchDB's evaluation (Tables IV and VI): an Elman RNN over the abstracted
// token stream of a patch (keywords, identifiers, operators, ...), trained
// with backpropagation through time and Adagrad. The current state depends
// on the current input token and the previous state, so the model captures
// context information the statistical features cannot.
package neural

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"patchdb/internal/ml"
)

// Vocab maps token strings to dense ids. Id 0 is reserved for unknown
// tokens.
type Vocab struct {
	index map[string]int
	words []string
}

// BuildVocab builds a vocabulary from token sequences, keeping the maxSize
// most frequent tokens (0 means unlimited).
func BuildVocab(seqs [][]string, maxSize int) *Vocab {
	freq := make(map[string]int)
	for _, seq := range seqs {
		for _, w := range seq {
			freq[w]++
		}
	}
	words := make([]string, 0, len(freq))
	for w := range freq {
		words = append(words, w)
	}
	// Sort by frequency desc, then lexicographically for determinism.
	sort.Slice(words, func(i, j int) bool {
		a, b := words[i], words[j]
		return freq[a] > freq[b] || (freq[a] == freq[b] && a < b)
	})
	if maxSize > 0 && len(words) > maxSize {
		words = words[:maxSize]
	}
	v := &Vocab{index: make(map[string]int, len(words)+1), words: append([]string{"<unk>"}, words...)}
	for i, w := range v.words {
		v.index[w] = i
	}
	return v
}

// Size returns the vocabulary size including <unk>.
func (v *Vocab) Size() int { return len(v.words) }

// ID returns the id of a token (0 for unknown).
func (v *Vocab) ID(w string) int { return v.index[w] }

// Encode maps a token sequence to ids.
func (v *Vocab) Encode(seq []string) []int {
	out := make([]int, len(seq))
	for i, w := range seq {
		out[i] = v.index[w]
	}
	return out
}

// The network's fixed shape and training settings.
const (
	rnnEmbed  = 16   // embedding width
	rnnHidden = 24   // recurrent state width
	rnnLR     = 0.05 // Adagrad base learning rate
	rnnMaxLen = 160  // tokens kept of each sequence
	rnnClip   = 5    // per-parameter gradient magnitude bound
)

// RNN is an Elman recurrent network for binary sequence classification.
type RNN struct {
	// Epochs over the training set (default 4).
	Epochs int
	// Seed drives initialization and shuffling.
	Seed int64

	vocab *Vocab

	// Weights, row-major: emb is vocab x rnnEmbed, wxh is
	// rnnHidden x rnnEmbed, whh is rnnHidden x rnnHidden.
	emb, wxh, whh, bh, wout []float64
	bout                    float64

	// Adagrad accumulators, same shapes.
	gEmb, gWxh, gWhh, gBh, gWout []float64
	gBout                        float64

	// proj is the vocab x Hidden table of bh[j] + Σ_k wxh[j][k]·emb[id][k],
	// built at the end of each fit so ProbaTokens skips the input
	// projection.
	proj []float64

	// memo holds the probabilities of the sequences scored since the last
	// fit. ProbaTokens only reads the model and locks memo, so concurrent
	// calls are safe.
	memo *memo

	sc bptt
}

// maxVocab caps the fitted vocabulary, so an id plus <unk> fits in the two
// bytes a memo key gives it.
const maxVocab = 2000

// memoBudget bounds the bytes a memo charges for its entries; once they
// are spent it stops inserting. memoEntryBytes is the charge per entry on
// top of its key: the map slot, the string header and the value.
const (
	memoBudget     = 4 << 20
	memoEntryBytes = 48
)

// memo maps a truncated sequence's vocabulary ids, two little-endian bytes
// each, to the probability the forward pass returned for them. Those ids
// are all the forward pass reads, so a hit returns the same bits a
// recomputation would.
type memo struct {
	mu   sync.Mutex
	p    map[string]float64
	used int // bytes charged against memoBudget
}

func (m *memo) get(key []byte) (float64, bool) {
	m.mu.Lock()
	p, ok := m.p[string(key)]
	m.mu.Unlock()
	return p, ok
}

func (m *memo) put(key []byte, p float64) {
	cost := len(key) + memoEntryBytes
	m.mu.Lock()
	if m.used+cost <= memoBudget {
		if _, ok := m.p[string(key)]; !ok {
			m.p[string(key)] = p
			m.used += cost
		}
	}
	m.mu.Unlock()
}

// bptt is step's scratch space, sized at the start of each fit and reused
// by every step, so a warmed step allocates nothing.
type bptt struct {
	hs                     []float64 // (rnnMaxLen+1) x rnnHidden states; row 0 is the zero initial state
	dWxh, dWhh, dBh, dWout []float64
	dh, nextDh             []float64
	dEmb                   []float64 // vocab x rnnEmbed; only rows in touched are nonzero
	seen                   []bool    // vocab; seen[id] iff id is in touched
	touched                []int
}

func newBPTT(vocab int) bptt {
	return bptt{
		hs:      make([]float64, (rnnMaxLen+1)*rnnHidden),
		dWxh:    make([]float64, rnnHidden*rnnEmbed),
		dWhh:    make([]float64, rnnHidden*rnnHidden),
		dBh:     make([]float64, rnnHidden),
		dWout:   make([]float64, rnnHidden),
		dh:      make([]float64, rnnHidden),
		nextDh:  make([]float64, rnnHidden),
		dEmb:    make([]float64, vocab*rnnEmbed),
		seen:    make([]bool, vocab),
		touched: make([]int, 0, min(vocab, rnnMaxLen)),
	}
}

func randomVector(n int, scale float64, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * scale
	}
	return v
}

// FitTokens trains the network on token sequences with labels.
func (r *RNN) FitTokens(seqs [][]string, y []int) error {
	return r.FitTokensWeighted(seqs, y, nil)
}

// FitTokensWeighted trains with optional per-sample loss weights (nil means
// uniform). Class weighting for imbalance is applied on top.
func (r *RNN) FitTokensWeighted(seqs [][]string, y []int, sampleW []float64) error {
	if len(seqs) == 0 {
		return ml.ErrEmptyDataset
	}
	if len(y) != len(seqs) {
		return fmt.Errorf("neural: %d labels for %d sequences", len(y), len(seqs))
	}
	if sampleW != nil && len(sampleW) != len(seqs) {
		return fmt.Errorf("neural: %d sample weights for %d sequences", len(sampleW), len(seqs))
	}
	if r.Epochs <= 0 {
		r.Epochs = 4
	}
	rng := rand.New(rand.NewSource(r.Seed + 101))
	r.vocab = BuildVocab(seqs, maxVocab)
	r.memo = &memo{p: make(map[string]float64)}
	v, ne, nh := r.vocab.Size(), rnnEmbed, rnnHidden
	r.emb = randomVector(v*ne, 0.1, rng)
	r.wxh = randomVector(nh*ne, 0.2, rng)
	r.whh = randomVector(nh*nh, 0.2, rng)
	r.bh = make([]float64, nh)
	r.wout = randomVector(nh, 0.2, rng)
	// Scale 0 makes these accumulators zero yet still advances rng, which
	// the training shuffle below reads next.
	r.gEmb = randomVector(v*ne, 0, rng)
	r.gWxh = randomVector(nh*ne, 0, rng)
	r.gWhh = randomVector(nh*nh, 0, rng)
	r.gBh = make([]float64, nh)
	r.gWout = make([]float64, nh)
	r.bout, r.gBout = 0, 0
	r.sc = newBPTT(v)

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
	// Weight the minority class so imbalanced training sets (e.g. with 2-3x
	// synthetic non-security patches) do not collapse to the majority label.
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
	r.proj = make([]float64, v*nh)
	for id := 0; id < v; id++ {
		r.project(r.proj[id*nh:][:nh], r.emb[id*ne:][:ne])
	}
	return nil
}

// project sets dst[j] = bh[j] + Σ_k wxh[j][k]·e[k], summing left to right.
func (r *RNN) project(dst, e []float64) {
	for j := range dst {
		sum := r.bh[j]
		wx := r.wxh[j*len(e):][:len(e)]
		for k, ek := range e {
			sum += wx[k] * ek
		}
		dst[j] = sum
	}
}

// recur sets h[j] = tanh(pre[j] + Σ_k whh[j][k]·prev[k]), continuing the
// sum project started. h may alias pre.
func (r *RNN) recur(h, pre, prev []float64) {
	for j := range h {
		sum := pre[j]
		wh := r.whh[j*len(prev):][:len(prev)]
		for k, pk := range prev {
			sum += wh[k] * pk
		}
		h[j] = math.Tanh(sum)
	}
}

// step runs one forward+BPTT pass and applies Adagrad updates. weight
// scales the loss gradient (class weighting).
func (r *RNN) step(ids []int, target, weight float64) {
	if len(ids) == 0 {
		return
	}
	sc := &r.sc
	ne, nh := rnnEmbed, rnnHidden
	tlen := len(ids)
	hs := sc.hs[:(tlen+1)*nh]
	clear(hs[:nh])
	for t, id := range ids {
		h := hs[(t+1)*nh:][:nh]
		r.project(h, r.emb[id*ne:][:ne])
		r.recur(h, h, hs[t*nh:][:nh])
	}
	last := hs[tlen*nh:]
	z := r.bout
	for j := 0; j < nh; j++ {
		z += r.wout[j] * last[j]
	}
	p := 1 / (1 + math.Exp(-z))
	dz := (p - target) * weight // dL/dz for weighted BCE

	// Output layer gradients.
	dh, nextDh := sc.dh, sc.nextDh
	for j := 0; j < nh; j++ {
		sc.dWout[j] = dz * last[j]
		dh[j] = dz * r.wout[j]
	}

	clear(sc.dWxh)
	clear(sc.dWhh)
	clear(sc.dBh)
	for t := tlen - 1; t >= 0; t-- {
		h := hs[(t+1)*nh:][:nh]
		prev := hs[t*nh:][:nh]
		id := ids[t]
		e := r.emb[id*ne:][:ne]
		if !sc.seen[id] {
			sc.seen[id] = true
			sc.touched = append(sc.touched, id)
		}
		de := sc.dEmb[id*ne:][:ne]
		nextDh = nextDh[:nh]
		clear(nextDh)
		for j := 0; j < nh; j++ {
			g := dh[j] * (1 - h[j]*h[j])
			sc.dBh[j] += g
			dwx := sc.dWxh[j*ne:][:ne]
			wx := r.wxh[j*ne:][:ne]
			for k := range dwx {
				dwx[k] += g * e[k]
				de[k] += g * wx[k]
			}
			dwh := sc.dWhh[j*nh:][:nh]
			wh := r.whh[j*nh:][:nh]
			for k := range dwh {
				dwh[k] += g * prev[k]
				nextDh[k] += g * wh[k]
			}
		}
		dh, nextDh = nextDh, dh
	}

	r.adagrad(r.wxh, sc.dWxh, r.gWxh)
	r.adagrad(r.whh, sc.dWhh, r.gWhh)
	r.adagrad(r.bh, sc.dBh, r.gBh)
	r.adagrad(r.wout, sc.dWout, r.gWout)
	gb := clip(dz)
	r.gBout += gb * gb
	r.bout -= rnnLR * gb / (math.Sqrt(r.gBout) + 1e-8)
	for _, id := range sc.touched {
		de := sc.dEmb[id*ne:][:ne]
		r.adagrad(r.emb[id*ne:][:ne], de, r.gEmb[id*ne:][:ne])
		clear(de)
		sc.seen[id] = false
	}
	sc.touched = sc.touched[:0]
}

func clip(g float64) float64 {
	if g > rnnClip {
		return rnnClip
	}
	if g < -rnnClip {
		return -rnnClip
	}
	return g
}

func (r *RNN) adagrad(w, g, acc []float64) {
	for j := range w {
		gj := clip(g[j])
		acc[j] += gj * gj
		w[j] -= rnnLR * gj / (math.Sqrt(acc[j]) + 1e-8)
	}
}

// ProbaTokens returns P(security) for a token sequence. Sequences with the
// same vocabulary ids up to rnnMaxLen share one forward pass per fit.
func (r *RNN) ProbaTokens(seq []string) float64 {
	if r.vocab == nil {
		return 0
	}
	if len(seq) > rnnMaxLen {
		seq = seq[:rnnMaxLen]
	}
	var keyBuf [2 * rnnMaxLen]byte
	key := keyBuf[:0]
	for _, w := range seq {
		id := r.vocab.ID(w)
		key = append(key, byte(id), byte(id>>8))
	}
	if p, ok := r.memo.get(key); ok {
		return p
	}
	const nh = rnnHidden
	var rows [2 * nh]float64
	h, next := rows[:nh], rows[nh:]
	for i := 0; i < len(key); i += 2 {
		id := int(key[i]) | int(key[i+1])<<8
		r.recur(next, r.proj[id*nh:][:nh], h)
		h, next = next, h
	}
	z := r.bout
	for j := 0; j < nh; j++ {
		z += r.wout[j] * h[j]
	}
	p := 1 / (1 + math.Exp(-z))
	r.memo.put(key, p)
	return p
}

// PredictTokens thresholds ProbaTokens at 0.5.
func (r *RNN) PredictTokens(seq []string) int {
	if r.ProbaTokens(seq) >= 0.5 {
		return ml.Security
	}
	return ml.NonSecurity
}
