package classify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ctxmatch/internal/relational"
)

func TestNaiveBayesSeparatesVocabularies(t *testing.T) {
	nb := NewNaiveBayes()
	books := []string{"heart of darkness", "leaves of grass", "wasteland", "moby dick", "the trial"}
	cds := []string{"hotel california", "the white album", "abbey road", "rumours", "thriller"}
	for _, s := range books {
		nb.Train(relational.S(s), "book")
	}
	for _, s := range cds {
		nb.Train(relational.S(s), "cd")
	}
	if got, ok := nb.Classify(relational.S("heart of glass leaves")); !ok || got != "book" {
		t.Errorf("book-ish text classified as %q (ok=%v)", got, ok)
	}
	if got, ok := nb.Classify(relational.S("california hotel")); !ok || got != "cd" {
		t.Errorf("cd-ish text classified as %q (ok=%v)", got, ok)
	}
}

func TestNaiveBayesStructuredStrings(t *testing.T) {
	// ISBN-like digits vs ASIN-like codes: the discriminative case the
	// inventory data relies on.
	nb := NewNaiveBayes()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		isbn := fmt.Sprintf("%010d", rng.Intn(1_000_000_000))
		nb.Train(relational.S(isbn), "isbn")
		asin := fmt.Sprintf("B%09X", rng.Intn(1<<31))
		nb.Train(relational.S(asin), "asin")
	}
	correct := 0
	for i := 0; i < 40; i++ {
		if got, _ := nb.Classify(relational.S(fmt.Sprintf("%010d", rng.Intn(1_000_000_000)))); got == "isbn" {
			correct++
		}
		if got, _ := nb.Classify(relational.S(fmt.Sprintf("B%09X", rng.Intn(1<<31)))); got == "asin" {
			correct++
		}
	}
	if correct < 68 { // 85% of 80: hex ASINs share digits with ISBNs
		t.Errorf("structured-string accuracy %d/80 too low", correct)
	}
}

func TestNaiveBayesEmpty(t *testing.T) {
	nb := NewNaiveBayes()
	if _, ok := nb.Classify(relational.S("x")); ok {
		t.Error("untrained classifier must report !ok")
	}
	if len(nb.Labels()) != 0 {
		t.Error("untrained classifier has no labels")
	}
}

func TestNaiveBayesPriorDominatesForUnseenText(t *testing.T) {
	nb := NewNaiveBayes()
	for i := 0; i < 9; i++ {
		nb.Train(relational.S("aaa"), "common")
	}
	nb.Train(relational.S("zzz"), "rare")
	// A value sharing no grams with training data follows the prior.
	if got, _ := nb.Classify(relational.S("qqq")); got != "common" {
		t.Errorf("unseen text classified as %q, want prior majority", got)
	}
}

func TestNaiveBayesLabelsSorted(t *testing.T) {
	nb := NewNaiveBayes()
	nb.Train(relational.S("x"), "zeta")
	nb.Train(relational.S("y"), "alpha")
	if got := nb.Labels(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Errorf("Labels = %v", got)
	}
}

func TestGaussianSeparatesDistributions(t *testing.T) {
	g := NewGaussian()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		g.Train(relational.F(10+rng.NormFloat64()*2), "low")
		g.Train(relational.F(50+rng.NormFloat64()*2), "high")
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if got, _ := g.Classify(relational.F(10 + rng.NormFloat64()*2)); got == "low" {
			correct++
		}
		if got, _ := g.Classify(relational.F(50 + rng.NormFloat64()*2)); got == "high" {
			correct++
		}
	}
	if correct < 195 {
		t.Errorf("gaussian accuracy %d/200 too low for well-separated data", correct)
	}
}

func TestGaussianOverlapDegradesGracefully(t *testing.T) {
	// As distributions overlap more, accuracy decreases — this is the
	// mechanism behind the Grades σ experiment (Figure 19).
	rng := rand.New(rand.NewSource(3))
	accuracy := func(sigma float64) float64 {
		g := NewGaussian()
		for i := 0; i < 300; i++ {
			g.Train(relational.F(40+rng.NormFloat64()*sigma), "a")
			g.Train(relational.F(50+rng.NormFloat64()*sigma), "b")
		}
		correct := 0
		for i := 0; i < 300; i++ {
			if got, _ := g.Classify(relational.F(40 + rng.NormFloat64()*sigma)); got == "a" {
				correct++
			}
			if got, _ := g.Classify(relational.F(50 + rng.NormFloat64()*sigma)); got == "b" {
				correct++
			}
		}
		return float64(correct) / 600
	}
	tight, loose := accuracy(2), accuracy(30)
	if tight < 0.95 {
		t.Errorf("σ=2 accuracy = %v, want near 1", tight)
	}
	if loose >= tight {
		t.Errorf("σ=30 accuracy %v should be worse than σ=2 accuracy %v", loose, tight)
	}
}

func TestGaussianPriorWeighting(t *testing.T) {
	g := NewGaussian()
	// Same distribution for both labels, but 9:1 prior.
	for i := 0; i < 90; i++ {
		g.Train(relational.F(10), "common")
	}
	for i := 0; i < 10; i++ {
		g.Train(relational.F(10), "rare")
	}
	if got, _ := g.Classify(relational.F(10)); got != "common" {
		t.Errorf("prior should break the tie: got %q", got)
	}
}

func TestGaussianConstantLabelNoInfiniteDensity(t *testing.T) {
	g := NewGaussian()
	for i := 0; i < 10; i++ {
		g.Train(relational.F(5), "const") // zero variance
		g.Train(relational.F(float64(i)), "spread")
	}
	// A value far from 5 must not be captured by the zero-variance label.
	if got, _ := g.Classify(relational.F(9)); got != "spread" {
		t.Errorf("far value classified as %q, want spread", got)
	}
	// A value at exactly 5 should go to the constant label.
	if got, _ := g.Classify(relational.F(5)); got != "const" {
		t.Errorf("exact value classified as %q, want const", got)
	}
}

func TestGaussianNonNumericInputs(t *testing.T) {
	g := NewGaussian()
	g.Train(relational.S("not a number"), "x") // ignored
	if _, ok := g.Classify(relational.F(1)); ok {
		t.Error("classifier with no numeric training data must report !ok")
	}
	for i := 0; i < 5; i++ {
		g.Train(relational.F(1), "a")
	}
	g.Train(relational.F(2), "b")
	// Unparseable test value falls back to majority.
	if got, ok := g.Classify(relational.S("??")); !ok || got != "a" {
		t.Errorf("non-numeric input → %q (ok=%v), want majority a", got, ok)
	}
}

func TestForType(t *testing.T) {
	if _, ok := ForType(relational.Text).(*NaiveBayes); !ok {
		t.Error("Text should get NaiveBayes")
	}
	if _, ok := ForType(relational.String).(*NaiveBayes); !ok {
		t.Error("String should get NaiveBayes")
	}
	if _, ok := ForType(relational.Int).(*Gaussian); !ok {
		t.Error("Int should get Gaussian")
	}
	if _, ok := ForType(relational.Real).(*Gaussian); !ok {
		t.Error("Real should get Gaussian")
	}
	if _, ok := ForType(relational.Bool).(*Gaussian); !ok {
		t.Error("Bool should get Gaussian")
	}
}

// Property-ish check: classifier accuracy on its own training data beats
// the majority baseline when labels are actually separable.
func TestNaiveBayesBeatsBaselineOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nb := NewNaiveBayes()
	counts := map[string]int{}
	var vals []relational.Value
	var labels []string
	for i := 0; i < 100; i++ {
		var v relational.Value
		var l string
		if rng.Intn(2) == 0 {
			v, l = relational.S(fmt.Sprintf("alpha-%d", rng.Intn(10))), "a"
		} else {
			v, l = relational.S(fmt.Sprintf("omega-%d", rng.Intn(10))), "b"
		}
		nb.Train(v, l)
		counts[l]++
		vals = append(vals, v)
		labels = append(labels, l)
	}
	nbCorrect := 0
	for i, v := range vals {
		if got, ok := nb.Classify(v); ok && got == labels[i] {
			nbCorrect++
		}
	}
	// The majority baseline is right exactly on the commonest label.
	majCorrect := max(counts["a"], counts["b"])
	if nbCorrect <= majCorrect {
		t.Errorf("NaiveBayes (%d) should beat majority (%d) on separable data", nbCorrect, majCorrect)
	}
}
