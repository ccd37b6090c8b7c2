package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"patchdb/internal/core/augment"
	"patchdb/internal/core/nearestlink"
	"patchdb/internal/core/oversample"
	"patchdb/internal/corpus"
	"patchdb/internal/features"
	"patchdb/internal/ml"
	"patchdb/internal/ml/neural"
	"patchdb/internal/ml/tree"
)

// nearestLinkCandidates returns the pool indices selected by nearest link
// search for a verified seed.
func nearestLinkCandidates(seedX [][]float64, pool []augment.Item) ([]int, error) {
	wildX := make([][]float64, len(pool))
	for i, it := range pool {
		wildX[i] = it.Features
	}
	links, err := nearestlink.Search(context.Background(), seedX, wildX, nil)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(links))
	for i, l := range links {
		out[i] = l.Wild
	}
	return out, nil
}

// seqDataset couples token sequences with labels (and optional per-sample
// weights) for the RNN.
type seqDataset struct {
	seqs [][]string
	y    []int
	w    []float64 // nil = uniform
}

func (d *seqDataset) append(seq []string, label int) {
	d.seqs = append(d.seqs, seq)
	d.y = append(d.y, label)
	if d.w != nil {
		d.w = append(d.w, 1)
	}
}

// appendWeighted adds a sample with an explicit loss weight.
func (d *seqDataset) appendWeighted(seq []string, label int, weight float64) {
	if d.w == nil {
		d.w = make([]float64, len(d.seqs))
		for i := range d.w {
			d.w[i] = 1
		}
	}
	d.seqs = append(d.seqs, seq)
	d.y = append(d.y, label)
	d.w = append(d.w, weight)
}

func (l *Lab) tokenSeq(lc *corpus.LabeledCommit) []string {
	return features.TokenSequence(lc.Commit.Patch())
}

// splitCommits shuffles and splits a commit list 80/20.
func splitCommits(list []*corpus.LabeledCommit, rng *rand.Rand) (train, test []*corpus.LabeledCommit) {
	idx := rng.Perm(len(list))
	cut := len(list) * 8 / 10
	for i, j := range idx {
		if i < cut {
			train = append(train, list[j])
		} else {
			test = append(test, list[j])
		}
	}
	return train, test
}

// synthesizeFor generates synthetic token sequences from natural training
// commits using the source-level oversampler. maxPer bounds variants per
// natural patch. The variants are synthesized and tokenized on GOMAXPROCS
// workers and appended in list order.
func (l *Lab) synthesizeFor(list []*corpus.LabeledCommit, label int, maxPer int, weight float64, out *seqDataset) (count int) {
	rng := rand.New(rand.NewSource(l.Scale.Seed + 777))
	ov := &oversample.Oversampler{MaxPerPatch: maxPer, Rand: rng}
	seqs := make([][][]string, len(list))
	// context.Background is never done, so the batch cannot fail.
	_ = ov.SynthesizeBatch(context.Background(), len(list), 0, func(i int) oversample.Job {
		c := list[i].Commit
		return oversample.Job{Hash: c.Hash, Before: c.Before, After: c.After}
	}, func(i int, syns []*oversample.Synthetic) {
		for _, s := range syns {
			seqs[i] = append(seqs[i], features.TokenSequence(s.Patch))
		}
	})
	for _, ss := range seqs {
		for _, seq := range ss {
			out.appendWeighted(seq, label, weight)
			count++
		}
	}
	return count
}

// rnnEpochs adapts the epoch count to the training-set size so small
// datasets still see enough gradient updates (~30K minimum).
func (l *Lab) rnnEpochs(n int) int {
	epochs := l.Scale.RNNEpochs
	if n > 0 && n*epochs < 30000 {
		epochs = (30000 + n - 1) / n
		if epochs > 40 {
			epochs = 40
		}
	}
	return epochs
}

// rnnRuns is the number of independently seeded RNN trainings averaged per
// evaluation cell; single runs are too noisy for the small deltas Table IV
// reports.
const rnnRuns = 2

// evalRNN trains rnnRuns RNNs on train and returns their average test
// metrics.
func (l *Lab) evalRNN(train *seqDataset, test *seqDataset, seed int64) (ml.Metrics, error) {
	var agg ml.Metrics
	for r := 0; r < rnnRuns; r++ {
		rnn := &neural.RNN{Epochs: l.rnnEpochs(len(train.seqs)), Seed: seed + int64(r)*1000}
		if err := rnn.FitTokensWeighted(train.seqs, train.y, train.w); err != nil {
			return ml.Metrics{}, err
		}
		pred := make([]int, len(test.seqs))
		for i, s := range test.seqs {
			pred[i] = rnn.PredictTokens(s)
		}
		accumulate(&agg, ml.Evaluate(pred, test.y), rnnRuns)
	}
	return agg, nil
}

// TableIVRow is one configuration of the synthetic-patch study.
type TableIVRow struct {
	Dataset   string
	Synthetic string // "-" or the synthetic set sizes
	Metrics   ml.Metrics
}

// TableIV evaluates whether source-level synthetic patches improve RNN-based
// security patch identification on a small (NVD) and a large (NVD+wild)
// dataset.
type TableIV struct {
	Rows []TableIVRow
}

// RunTableIV reproduces Table IV. Each cell averages Scale.TableIVSplits
// independent splits (synthesis is redone from each training split, as the
// paper requires): the deltas the paper reports are smaller than
// single-split variance at reduced scale.
func (l *Lab) RunTableIV() (*TableIV, error) {
	tableIVSplits := l.Scale.TableIVSplits
	wildSec, err := l.WildSecurity()
	if err != nil {
		return nil, err
	}
	wildNon, err := l.WildNonSecurity()
	if err != nil {
		return nil, err
	}
	var t TableIV

	runPair := func(name string, sec, non []*corpus.LabeledCommit) error {
		var natMetrics, synMetrics ml.Metrics
		var nSecTotal, nNonTotal int
		for split := 0; split < tableIVSplits; split++ {
			rng := rand.New(rand.NewSource(l.Scale.Seed + 444 + int64(split)))
			secTrain, secTest := splitCommits(sec, rng)
			nonTrain, nonTest := splitCommits(non, rng)

			natural := &seqDataset{}
			for _, lc := range secTrain {
				natural.append(l.tokenSeq(lc), ml.Security)
			}
			for _, lc := range nonTrain {
				natural.append(l.tokenSeq(lc), ml.NonSecurity)
			}
			test := &seqDataset{}
			for _, lc := range secTest {
				test.append(l.tokenSeq(lc), ml.Security)
			}
			for _, lc := range nonTest {
				test.append(l.tokenSeq(lc), ml.NonSecurity)
			}

			m, err := l.evalRNN(natural, test, l.Scale.Seed+int64(split))
			if err != nil {
				return err
			}
			accumulate(&natMetrics, m, tableIVSplits)

			// Synthetic patches are generated solely from the training split
			// and down-weighted so they enrich the natural distribution
			// without dominating it.
			withSyn := &seqDataset{}
			withSyn.seqs = append(withSyn.seqs, natural.seqs...)
			withSyn.y = append(withSyn.y, natural.y...)
			nSec := l.synthesizeFor(secTrain, ml.Security, 5, 0.5, withSyn)
			nNon := l.synthesizeFor(nonTrain, ml.NonSecurity, 3, 0.5, withSyn)
			nSecTotal += nSec / tableIVSplits
			nNonTotal += nNon / tableIVSplits

			m2, err := l.evalRNN(withSyn, test, l.Scale.Seed+int64(split))
			if err != nil {
				return err
			}
			accumulate(&synMetrics, m2, tableIVSplits)
		}
		t.Rows = append(t.Rows, TableIVRow{Dataset: name, Synthetic: "-", Metrics: natMetrics})
		t.Rows = append(t.Rows, TableIVRow{
			Dataset:   name,
			Synthetic: fmt.Sprintf("~%d Sec. + ~%d NonSec.", nSecTotal, nNonTotal),
			Metrics:   synMetrics,
		})
		return nil
	}

	if err := runPair("NVD", l.NVD, l.NonSec); err != nil {
		return nil, fmt.Errorf("table IV (NVD): %w", err)
	}
	allSec := append(append([]*corpus.LabeledCommit(nil), l.NVD...), wildSec...)
	allNon := append(append([]*corpus.LabeledCommit(nil), l.NonSec...), wildNon...)
	if err := runPair("NVD+Wild", allSec, allNon); err != nil {
		return nil, fmt.Errorf("table IV (NVD+Wild): %w", err)
	}
	return &t, nil
}

// accumulate adds m/n into agg (used for split averaging).
func accumulate(agg *ml.Metrics, m ml.Metrics, n int) {
	agg.Precision += m.Precision / float64(n)
	agg.Recall += m.Recall / float64(n)
	agg.F1 += m.F1 / float64(n)
	agg.Accuracy += m.Accuracy / float64(n)
	agg.TP += m.TP
	agg.FP += m.FP
	agg.TN += m.TN
	agg.FN += m.FN
}

// String renders Table IV.
func (t *TableIV) String() string {
	var b strings.Builder
	b.WriteString("Table IV: Performance w/o or w/ synthetic patches (RNN)\n")
	fmt.Fprintf(&b, "%-10s %-28s %-10s %s\n", "Dataset", "Synthetic Dataset", "Precision", "Recall")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %-28s %-10.1f %.1f\n",
			r.Dataset, r.Synthetic, 100*r.Metrics.Precision, 100*r.Metrics.Recall)
	}
	return b.String()
}

// TableVIRow is one (training set, algorithm, test set) cell pair.
type TableVIRow struct {
	TrainSet  string
	Algorithm string
	TestSet   string
	Metrics   ml.Metrics
}

// TableVI studies dataset quality: generalization of models trained on NVD
// vs NVD+wild, tested on NVD and wild.
type TableVI struct {
	Rows []TableVIRow
}

// RunTableVI reproduces Table VI with a Random Forest over statistical
// features and the RNN over token sequences.
func (l *Lab) RunTableVI() (*TableVI, error) {
	wildSec, err := l.WildSecurity()
	if err != nil {
		return nil, err
	}
	wildNon, err := l.WildNonSecurity()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(l.Scale.Seed + 555))

	nvdSecTrain, nvdSecTest := splitCommits(l.NVD, rng)
	nvdNonTrain, nvdNonTest := splitCommits(l.NonSec, rng)
	wildSecTrain, wildSecTest := splitCommits(wildSec, rng)
	wildNonTrain, wildNonTest := splitCommits(wildNon, rng)

	type group struct {
		name string
		sec  []*corpus.LabeledCommit
		non  []*corpus.LabeledCommit
	}
	trainSets := []group{
		{"NVD", concat(nvdSecTrain), concat(nvdNonTrain)},
		{"NVD+Wild", concat(nvdSecTrain, wildSecTrain), concat(nvdNonTrain, wildNonTrain)},
	}
	testSets := []group{
		{"NVD", concat(nvdSecTest), concat(nvdNonTest)},
		{"Wild", concat(wildSecTest), concat(wildNonTest)},
	}

	var t TableVI
	for _, tr := range trainSets {
		// Random Forest on the 60 statistical features.
		ds := &ml.Dataset{}
		for _, lc := range tr.sec {
			ds.Append(l.Features(lc), ml.Security, "")
		}
		for _, lc := range tr.non {
			ds.Append(l.Features(lc), ml.NonSecurity, "")
		}
		rf := &tree.Forest{Trees: 60, Seed: l.Scale.Seed}
		if err := rf.Fit(ds.X, ds.Y); err != nil {
			return nil, fmt.Errorf("table VI rf: %w", err)
		}
		for _, te := range testSets {
			test := &ml.Dataset{}
			for _, lc := range te.sec {
				test.Append(l.Features(lc), ml.Security, "")
			}
			for _, lc := range te.non {
				test.Append(l.Features(lc), ml.NonSecurity, "")
			}
			t.Rows = append(t.Rows, TableVIRow{
				TrainSet: tr.name, Algorithm: "Random Forest", TestSet: te.name,
				Metrics: ml.EvaluateClassifier(rf, test),
			})
		}

		// RNN on token sequences.
		seqTrain := &seqDataset{}
		for _, lc := range tr.sec {
			seqTrain.append(l.tokenSeq(lc), ml.Security)
		}
		for _, lc := range tr.non {
			seqTrain.append(l.tokenSeq(lc), ml.NonSecurity)
		}
		rnn := &neural.RNN{Epochs: l.rnnEpochs(len(seqTrain.seqs)), Seed: l.Scale.Seed + 2}
		if err := rnn.FitTokens(seqTrain.seqs, seqTrain.y); err != nil {
			return nil, fmt.Errorf("table VI rnn: %w", err)
		}
		for _, te := range testSets {
			seqTest := &seqDataset{}
			for _, lc := range te.sec {
				seqTest.append(l.tokenSeq(lc), ml.Security)
			}
			for _, lc := range te.non {
				seqTest.append(l.tokenSeq(lc), ml.NonSecurity)
			}
			pred := make([]int, len(seqTest.seqs))
			for i, s := range seqTest.seqs {
				pred[i] = rnn.PredictTokens(s)
			}
			t.Rows = append(t.Rows, TableVIRow{
				TrainSet: tr.name, Algorithm: "RNN", TestSet: te.name,
				Metrics: ml.Evaluate(pred, seqTest.y),
			})
		}
	}
	return &t, nil
}

func concat(lists ...[]*corpus.LabeledCommit) []*corpus.LabeledCommit {
	var out []*corpus.LabeledCommit
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// String renders Table VI.
func (t *TableVI) String() string {
	var b strings.Builder
	b.WriteString("Table VI: Impacts of datasets over learning-based models\n")
	fmt.Fprintf(&b, "%-10s %-15s %-8s %-10s %s\n", "Train", "Algorithm", "Test", "Precision", "Recall")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %-15s %-8s %-10.1f %.1f\n",
			r.TrainSet, r.Algorithm, r.TestSet, 100*r.Metrics.Precision, 100*r.Metrics.Recall)
	}
	return b.String()
}
