package classify

import (
	"math"
	"slices"
	"strings"
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

// Column is one labelled training column of a target Naive Bayes: the
// label its values carry, how many non-NULL values it holds, and the
// trigram counts of those values summed into one vector keyed by the
// dictionary the classifier compiles against.
type Column struct {
	Label  string
	Values int
	Grams  *tokenize.IDVector
}

// CompileNaiveBayes returns the frozen Naive Bayes that training a
// NaiveBayes on every non-NULL value of cols, each labelled with its
// column's label, and freezing it over dict would produce. Every
// trained quantity is a count the columns already carry: a label's
// examples are its columns' non-NULL values, its gram counts and total
// their vectors' summed counts and mass, and the vocabulary the
// distinct IDs across all vectors. Columns sharing a label are summed;
// a label with no non-NULL value does not exist. All sums are
// integer-valued float64s and exact in any order, and each table term
// is computed with the same operations as the trained classifier's, so
// the tables are bit-identical. Nothing is interned, so dict may
// already be frozen; every vector ID must lie below dict.Len().
func CompileNaiveBayes(dict *tokenize.Dict, cols []Column) *FrozenNaiveBayes {
	type label struct {
		name         string
		values, mass float64
		cols         []*tokenize.IDVector
	}
	byName := map[string]*label{}
	seen := make([]bool, dict.Len())
	var examples, vocab float64
	for _, c := range cols {
		l := byName[c.Label]
		if l == nil {
			l = &label{name: c.Label}
			byName[c.Label] = l
		}
		l.values += float64(c.Values)
		l.mass += c.Grams.Mass()
		l.cols = append(l.cols, c.Grams)
		examples += float64(c.Values)
		for _, id := range c.Grams.IDs {
			if !seen[id] {
				seen[id] = true
				vocab++
			}
		}
	}
	var labels []*label
	for _, l := range byName {
		if l.values > 0 {
			labels = append(labels, l)
		}
	}
	slices.SortFunc(labels, func(a, b *label) int { return strings.Compare(a.name, b.name) })

	L := len(labels)
	f := &FrozenNaiveBayes{
		dict:       dict,
		labels:     make([]string, L),
		logPrior:   make([]float64, L),
		oov:        make([]float64, L),
		tableGrams: dict.Len(),
		trained:    examples > 0,
	}
	totals := make([]float64, L)
	for li, l := range labels {
		f.labels[li] = l.name
		f.logPrior[li] = math.Log(l.values / examples)
		totals[li] = l.mass + (vocab + 1)
		f.oov[li] = math.Log(1 / totals[li])
	}
	// A gram a label never saw scores log((0+1)/total), which is the
	// label's OOV term bit for bit, so every row starts as a copy of oov
	// and only the (gram, label) pairs a label counted are overwritten:
	// Σ|per-label vocabulary| Log calls instead of tableGrams·L.
	f.lik = make([]float64, f.tableGrams*L)
	for gid := 0; gid < f.tableGrams; gid++ {
		copy(f.lik[gid*L:(gid+1)*L], f.oov)
	}
	for li, l := range labels {
		total := totals[li]
		if len(l.cols) == 1 {
			v := l.cols[0]
			for k, id := range v.IDs {
				f.lik[int(id)*L+li] = math.Log((v.Counts[k] + 1) / total)
			}
			continue
		}
		sum := map[uint32]float64{}
		for _, v := range l.cols {
			for k, id := range v.IDs {
				sum[id] += v.Counts[k]
			}
		}
		for id, c := range sum {
			f.lik[int(id)*L+li] = math.Log((c + 1) / total)
		}
	}
	f.initScratch()
	return f
}

// initScratch sizes the pooled per-call score buffers to the label set.
func (f *FrozenNaiveBayes) initScratch() {
	L := len(f.labels)
	f.scratch.New = func() any {
		s := make([]float64, L)
		return &s
	}
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
