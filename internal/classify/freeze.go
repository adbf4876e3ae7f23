package classify

import (
	"math"
	"sync"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// FrozenClassifier is the immutable, compiled form of a trained
// Classifier: label set pinned and sorted, per-label parameters laid out
// in contiguous slices, and (for the Naive Bayes form) gram likelihoods
// indexed by interned gram ID. A frozen classifier predicts the same
// label as its live counterpart on every value — bit-for-bit, because
// freezing precomputes exactly the terms the live classifier computes,
// and accumulates them in the same order — while classifying with zero
// map lookups and zero allocations. Frozen classifiers are safe for
// concurrent use.
type FrozenClassifier interface {
	// Classify predicts a label for v; ok is false if the classifier
	// froze with no training data (mirroring Classifier.Classify).
	Classify(v relational.Value) (label string, ok bool)
	// ClassifyIndex is Classify returning the dense index of the label
	// in Labels() instead of the string, for ID-keyed consumers. The
	// index is -1 when ok is false.
	ClassifyIndex(v relational.Value) (idx int, ok bool)
	// Labels returns the label set, sorted, aligned with ClassifyIndex.
	Labels() []string
}

// Freeze compiles a trained classifier into its immutable frozen form.
// NaiveBayes vocab grams are interned into dict (which must still be
// building); Gaussian and Majority ignore the dictionary. The live
// classifier remains usable — Freeze only reads it.
func Freeze(c Classifier, dict *tokenize.Dict) FrozenClassifier {
	switch c := c.(type) {
	case *NaiveBayes:
		return c.Freeze(dict)
	case *Gaussian:
		return c.Freeze()
	case *Majority:
		return c.Freeze()
	default:
		panic("classify: Freeze of unknown classifier type")
	}
}

// FrozenNaiveBayes is the compiled form of NaiveBayes: per-label log
// priors plus a flat [gramID·L + label] log-likelihood table over the
// dictionary's gram range, with a single out-of-vocabulary bucket for
// grams the dictionary has never seen. Classify walks the value's gram
// IDs once, accumulating all label scores per gram from one contiguous
// table row.
type FrozenNaiveBayes struct {
	dict     *tokenize.Dict
	labels   []string
	logPrior []float64
	// lik[int(gid)*len(labels)+li] = log((count(gram,label)+1)/total(label)),
	// defined for every gid < tableGrams.
	lik []float64
	// oov[li] = log(1/total(label)): the likelihood of any gram outside
	// the table — identical to the smoothed likelihood of a known gram
	// the label never saw, so routing through the bucket is exact.
	oov        []float64
	tableGrams int
	trained    bool
	scratch    sync.Pool
}

// Freeze compiles the classifier, interning its vocabulary into dict.
func (nb *NaiveBayes) Freeze(dict *tokenize.Dict) *FrozenNaiveBayes {
	f := &FrozenNaiveBayes{dict: dict, labels: nb.Labels(), trained: nb.examples > 0}
	for gram := range nb.vocab {
		dict.Intern(gram)
	}
	L := len(f.labels)
	f.logPrior = make([]float64, L)
	f.oov = make([]float64, L)
	f.tableGrams = dict.Len()
	f.lik = make([]float64, f.tableGrams*L)
	vocab := float64(len(nb.vocab)) + 1
	totals := make([]float64, L)
	for li, label := range f.labels {
		// Precisely the terms NaiveBayes.Classify computes per label.
		f.logPrior[li] = math.Log(nb.labelCounts[label] / nb.examples)
		totals[li] = nb.gramTotals[label] + vocab
		f.oov[li] = math.Log(1 / totals[li])
	}
	// A gram a label never saw scores log((0+1)/total) — bit-for-bit the
	// label's OOV term — so the table is sparse in disguise: default-fill
	// every row with oov, then overwrite only the (gram, label) pairs the
	// label counted. This pays Σ|per-label vocab| Log calls instead of
	// tableGrams·L, which is what keeps freezing off the catalog-update
	// critical path.
	for gid := 0; gid < f.tableGrams; gid++ {
		copy(f.lik[gid*L:(gid+1)*L], f.oov)
	}
	for li, label := range f.labels {
		total := totals[li]
		for gram, c := range nb.grams[label] {
			f.lik[int(dict.Intern(gram))*L+li] = math.Log((c + 1) / total)
		}
	}
	f.scratch.New = func() any {
		s := make([]float64, L)
		return &s
	}
	return f
}

// Labels implements FrozenClassifier.
func (f *FrozenNaiveBayes) Labels() []string { return f.labels }

// Classify implements FrozenClassifier.
func (f *FrozenNaiveBayes) Classify(v relational.Value) (string, bool) {
	idx, ok := f.ClassifyIndex(v)
	if !ok {
		return "", false
	}
	return f.labels[idx], true
}

// ClassifyIndex implements FrozenClassifier: argmax over labels of
// logPrior + Σ lik[gram], walking the value's interned gram IDs once
// and each gram's contiguous table row once. Scores accumulate per
// label in the same order as the live classifier (prior first, then
// grams in value order), so results agree bit-for-bit.
func (f *FrozenNaiveBayes) ClassifyIndex(v relational.Value) (int, bool) {
	if !f.trained {
		return -1, false
	}
	sp := f.scratch.Get().(*[]float64)
	scores := *sp
	copy(scores, f.logPrior)
	for gid := range f.dict.TrigramIDs(v.Str()) {
		f.addGram(scores, gid)
	}
	best := argmax(scores)
	f.scratch.Put(sp)
	return best, true
}

// ClassifyIDs is ClassifyIndex over a value already tokenized into the
// classifier's dictionary (see Dict): ids are the value's trigram IDs
// in TrigramSeq order. Any ID outside the likelihood table — NoID, or
// a caller's own out-of-vocabulary numbering from the dictionary's end
// — scores through the OOV bucket, exactly as the unknown gram it
// stands for would. The accumulation order is ClassifyIndex's, so the
// two agree bit-for-bit.
func (f *FrozenNaiveBayes) ClassifyIDs(ids []uint32) (int, bool) {
	if !f.trained {
		return -1, false
	}
	sp := f.scratch.Get().(*[]float64)
	scores := *sp
	copy(scores, f.logPrior)
	for _, gid := range ids {
		f.addGram(scores, gid)
	}
	best := argmax(scores)
	f.scratch.Put(sp)
	return best, true
}

// addGram adds one gram's per-label log-likelihoods to scores: its
// table row when gid is inside the table, the OOV bucket otherwise.
func (f *FrozenNaiveBayes) addGram(scores []float64, gid uint32) {
	if gid != tokenize.NoID && int(gid) < f.tableGrams {
		L := len(f.labels)
		row := f.lik[int(gid)*L : int(gid)*L+L]
		for i := range scores {
			scores[i] += row[i]
		}
		return
	}
	for i, o := range f.oov {
		scores[i] += o
	}
}

// argmax returns the index of the first maximal score.
func argmax(scores []float64) int {
	best, bestScore := -1, math.Inf(-1)
	for i, s := range scores {
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Dict returns the dictionary the likelihood table is keyed by — the
// ID space ClassifyIDs expects.
func (f *FrozenNaiveBayes) Dict() *tokenize.Dict { return f.dict }

// FrozenGaussian is the compiled form of Gaussian: per-label
// (log prior − log normalizer), mean, and floored 2·variance laid out
// in contiguous slices, with the majority-label fallback precomputed.
type FrozenGaussian struct {
	labels []string
	// base[li] = log(n_l/N) − 0.5·log(2π·var_l), the value-independent
	// part of the live score, precomputed with the same operations.
	base        []float64
	mean        []float64
	twoVar      []float64 // 2·variance after the live variance floor
	majorityIdx int
	trained     bool
}

// Freeze compiles the classifier.
func (g *Gaussian) Freeze() *FrozenGaussian {
	f := &FrozenGaussian{labels: g.Labels(), trained: g.global.n > 0, majorityIdx: -1}
	L := len(f.labels)
	f.base = make([]float64, L)
	f.mean = make([]float64, L)
	f.twoVar = make([]float64, L)
	_, globalVar := g.global.meanVar()
	floor := globalVar * 1e-4
	if floor == 0 {
		floor = 1e-9
	}
	bestN := -1.0
	for li, label := range f.labels {
		acc := g.sums[label]
		mean, variance := acc.meanVar()
		if variance < floor {
			variance = floor
		}
		f.base[li] = math.Log(acc.n/g.global.n) - 0.5*math.Log(2*math.Pi*variance)
		f.mean[li] = mean
		f.twoVar[li] = 2 * variance
		if acc.n > bestN {
			f.majorityIdx, bestN = li, acc.n
		}
	}
	return f
}

// Labels implements FrozenClassifier.
func (f *FrozenGaussian) Labels() []string { return f.labels }

// Classify implements FrozenClassifier.
func (f *FrozenGaussian) Classify(v relational.Value) (string, bool) {
	idx, ok := f.ClassifyIndex(v)
	if !ok {
		return "", false
	}
	return f.labels[idx], true
}

// ClassifyIndex implements FrozenClassifier: the live classifier's
// prior-weighted log density, with the value-independent terms taken
// from the compiled table. Unparseable input falls back to the majority
// label, as in the live classifier.
func (f *FrozenGaussian) ClassifyIndex(v relational.Value) (int, bool) {
	if !f.trained {
		return -1, false
	}
	x, ok := v.Float()
	if !ok {
		return f.majorityIdx, true
	}
	best, bestScore := -1, math.Inf(-1)
	for i, b := range f.base {
		d := x - f.mean[i]
		score := b - d*d/f.twoVar[i]
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best, true
}

// FrozenMajority is the compiled form of Majority: the single majority
// label, pinned.
type FrozenMajority struct {
	labels  []string
	bestIdx int
	trained bool
}

// Freeze compiles the baseline classifier.
func (m *Majority) Freeze() *FrozenMajority {
	f := &FrozenMajority{labels: m.Labels(), bestIdx: -1, trained: m.total > 0}
	if f.trained {
		best := m.Best()
		for i, l := range f.labels {
			if l == best {
				f.bestIdx = i
				break
			}
		}
	}
	return f
}

// Labels implements FrozenClassifier.
func (f *FrozenMajority) Labels() []string { return f.labels }

// Classify implements FrozenClassifier.
func (f *FrozenMajority) Classify(relational.Value) (string, bool) {
	if !f.trained {
		return "", false
	}
	return f.labels[f.bestIdx], true
}

// ClassifyIndex implements FrozenClassifier.
func (f *FrozenMajority) ClassifyIndex(relational.Value) (int, bool) {
	if !f.trained {
		return -1, false
	}
	return f.bestIdx, true
}
