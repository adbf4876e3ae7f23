package classify

import (
	"fmt"
	"math"
	"slices"

	"ctxmatch/internal/tokenize"
)

// Freeze compiles a trained classifier into its immutable frozen form.
// NaiveBayes vocab grams are interned into dict (which must still be
// building); Gaussian ignores the dictionary. The live
// classifier remains usable — Freeze only reads it.
func Freeze(c Classifier, dict *tokenize.Dict) FrozenClassifier {
	switch c := c.(type) {
	case *NaiveBayes:
		return c.Freeze(dict)
	case *Gaussian:
		return c.Freeze()
	default:
		panic("classify: Freeze of unknown classifier type")
	}
}

// Freeze compiles the live classifier, interning its vocabulary into
// dict: the reference CompileNaiveBayes must reproduce bit for bit.
// Vocabulary grams new to dict intern in map order, so it is
// deterministic only when dict already holds every one of them.
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
	for gid := 0; gid < f.tableGrams; gid++ {
		copy(f.lik[gid*L:(gid+1)*L], f.oov)
	}
	for li, label := range f.labels {
		total := totals[li]
		for gram, c := range nb.grams[label] {
			f.lik[int(dict.Intern(gram))*L+li] = math.Log((c + 1) / total)
		}
	}
	f.initScratch()
	return f
}

// DiffRaw describes the first difference between two compiled Naive
// Bayes tables, comparing every float by its bit pattern; "" when they
// are identical.
func DiffRaw(got, want *RawNaiveBayes) string {
	if !slices.Equal(got.Labels, want.Labels) {
		return fmt.Sprintf("labels %q, want %q", got.Labels, want.Labels)
	}
	if got.TableGrams != want.TableGrams || got.Trained != want.Trained {
		return fmt.Sprintf("%d table grams (trained %v), want %d (trained %v)",
			got.TableGrams, got.Trained, want.TableGrams, want.Trained)
	}
	for _, tab := range []struct {
		name      string
		got, want []float64
	}{{"logPrior", got.LogPrior, want.LogPrior}, {"oov", got.OOV, want.OOV}, {"lik", got.Lik, want.Lik}} {
		if len(tab.got) != len(tab.want) {
			return fmt.Sprintf("%s has %d entries, want %d", tab.name, len(tab.got), len(tab.want))
		}
		for i, g := range tab.got {
			if math.Float64bits(g) != math.Float64bits(tab.want[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", tab.name, i, g, tab.want[i])
			}
		}
	}
	return ""
}
