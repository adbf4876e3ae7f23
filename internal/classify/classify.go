// Package classify implements the classifiers behind the view-inference
// algorithms of §3.2: a Naive Bayes classifier over 3-grams for text
// attributes and a Gaussian ("statistical") classifier for numeric
// attributes.
package classify

import (
	"maps"
	"math"
	"slices"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// Classifier learns a mapping from attribute values to string labels.
// Implementations must tolerate labels never seen in training at
// Classify time by returning their best default.
type Classifier interface {
	// Train adds one (value, label) example.
	Train(v relational.Value, label string)
	// Classify predicts a label for v; ok is false if the classifier has
	// seen no training data at all.
	Classify(v relational.Value) (label string, ok bool)
	// Labels returns the distinct labels seen in training, sorted.
	Labels() []string
}

// ForType returns the classifier the paper prescribes for an attribute
// of type t (§3.2.3): Naive Bayes on 3-grams for text-like attributes, a
// Gaussian classifier for numeric ones. Booleans use the Gaussian
// classifier on their 0/1 embedding.
func ForType(t relational.Type) Classifier {
	if t.Domain() == relational.DomainString {
		return NewNaiveBayes()
	}
	return NewGaussian()
}

// NaiveBayes is a multinomial Naive Bayes classifier whose features are
// the 3-grams of the value text, with add-one (Laplace) smoothing.
type NaiveBayes struct {
	grams       map[string]map[string]float64 // label -> gram -> count
	gramTotals  map[string]float64            // label -> total gram count
	labelCounts map[string]float64            // label -> examples
	vocab       map[string]struct{}
	examples    float64
}

// NewNaiveBayes returns an empty classifier.
func NewNaiveBayes() *NaiveBayes {
	return &NaiveBayes{
		grams:       map[string]map[string]float64{},
		gramTotals:  map[string]float64{},
		labelCounts: map[string]float64{},
		vocab:       map[string]struct{}{},
	}
}

// Train implements Classifier.
func (nb *NaiveBayes) Train(v relational.Value, label string) {
	nb.labelCounts[label]++
	nb.examples++
	g := nb.grams[label]
	if g == nil {
		g = map[string]float64{}
		nb.grams[label] = g
	}
	for _, gram := range tokenize.Trigrams(v.Str()) {
		g[gram]++
		nb.gramTotals[label]++
		nb.vocab[gram] = struct{}{}
	}
}

// Classify implements Classifier: arg max over labels of
// log P(label) + Σ log P(gram|label), Laplace-smoothed.
func (nb *NaiveBayes) Classify(v relational.Value) (string, bool) {
	if nb.examples == 0 {
		return "", false
	}
	grams := tokenize.Trigrams(v.Str())
	vocab := float64(len(nb.vocab)) + 1
	best, bestScore := "", math.Inf(-1)
	for _, label := range nb.Labels() {
		score := math.Log(nb.labelCounts[label] / nb.examples)
		total := nb.gramTotals[label] + vocab
		lg := nb.grams[label]
		for _, gram := range grams {
			score += math.Log((lg[gram] + 1) / total)
		}
		if score > bestScore {
			best, bestScore = label, score
		}
	}
	return best, true
}

// Labels implements Classifier.
func (nb *NaiveBayes) Labels() []string { return sortedKeys(nb.labelCounts) }

// Gaussian is the numeric "statistical classifier" of §3.2.3: it fits a
// normal distribution to the values of each label and classifies by
// maximum likelihood weighted by the label prior.
type Gaussian struct {
	sums   map[string]*gaussAcc
	global gaussAcc
}

type gaussAcc struct {
	n          float64
	sum, sumSq float64
}

func (a *gaussAcc) add(x float64) {
	a.n++
	a.sum += x
	a.sumSq += x * x
}

func (a *gaussAcc) meanVar() (mean, variance float64) {
	if a.n == 0 {
		return 0, 0
	}
	mean = a.sum / a.n
	variance = a.sumSq/a.n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// NewGaussian returns an empty classifier.
func NewGaussian() *Gaussian {
	return &Gaussian{sums: map[string]*gaussAcc{}}
}

// Train implements Classifier. Non-numeric values are ignored.
func (g *Gaussian) Train(v relational.Value, label string) {
	x, ok := v.Float()
	if !ok {
		return
	}
	acc := g.sums[label]
	if acc == nil {
		acc = &gaussAcc{}
		g.sums[label] = acc
	}
	acc.add(x)
	g.global.add(x)
}

// Classify implements Classifier. The per-label variance is floored at a
// fraction of the global variance so that constant-valued labels do not
// produce infinite densities.
func (g *Gaussian) Classify(v relational.Value) (string, bool) {
	if g.global.n == 0 {
		return "", false
	}
	x, ok := v.Float()
	if !ok {
		// Fall back to the most common label for unparseable input.
		return g.majority(), true
	}
	_, globalVar := g.global.meanVar()
	floor := globalVar * 1e-4
	if floor == 0 {
		floor = 1e-9
	}
	best, bestScore := "", math.Inf(-1)
	for _, label := range g.Labels() {
		acc := g.sums[label]
		mean, variance := acc.meanVar()
		if variance < floor {
			variance = floor
		}
		// log prior + log normal density.
		score := math.Log(acc.n/g.global.n) -
			0.5*math.Log(2*math.Pi*variance) -
			(x-mean)*(x-mean)/(2*variance)
		if score > bestScore {
			best, bestScore = label, score
		}
	}
	return best, true
}

// Labels implements Classifier.
func (g *Gaussian) Labels() []string { return sortedKeys(g.sums) }

func (g *Gaussian) majority() string {
	best, bestN := "", -1.0
	for _, label := range g.Labels() {
		if n := g.sums[label].n; n > bestN {
			best, bestN = label, n
		}
	}
	return best
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
