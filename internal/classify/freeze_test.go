package classify

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// randomValue draws a value from a mix of short strings, numbers,
// booleans, empty strings and NULLs — the full surface Classify must
// tolerate.
func randomValue(rng *rand.Rand) relational.Value {
	words := []string{"alpha", "beta", "Gamma Ray", "δéλτα", "x", "", "widget 42", "9.5"}
	switch rng.Intn(6) {
	case 0:
		return relational.S(words[rng.Intn(len(words))])
	case 1:
		return relational.S(fmt.Sprintf("%s %s", words[rng.Intn(len(words))], words[rng.Intn(len(words))]))
	case 2:
		return relational.I(rng.Intn(2000) - 1000)
	case 3:
		return relational.F(rng.NormFloat64() * 50)
	case 4:
		return relational.B(rng.Intn(2) == 0)
	default:
		return relational.Null
	}
}

// TestFrozenAgreesWithLive is the frozen/live equivalence property: for
// randomized training sets and randomized probe values — including
// labels never seen in training, empty strings and NULLs — the frozen
// classifier returns exactly the label (and label index) of its live
// counterpart.
func TestFrozenAgreesWithLive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"book.title", "book.price", "inv.name", "inv.qty"}
		nLabels := 1 + rng.Intn(len(labels))
		for _, build := range []func() Classifier{
			func() Classifier { return NewNaiveBayes() },
			func() Classifier { return NewGaussian() },
			func() Classifier { return NewMajority() },
		} {
			live := build()
			n := rng.Intn(60) // occasionally zero: the untrained case
			for i := 0; i < n; i++ {
				live.Train(randomValue(rng), labels[rng.Intn(nLabels)])
			}
			dict := tokenize.NewDict()
			frozen := Freeze(live, dict)
			dict.Freeze()
			for probe := 0; probe < 40; probe++ {
				v := randomValue(rng)
				wantLabel, wantOK := live.Classify(v)
				gotLabel, gotOK := frozen.Classify(v)
				if gotOK != wantOK || gotLabel != wantLabel {
					t.Logf("%T on %v: frozen (%q,%v) != live (%q,%v)",
						live, v, gotLabel, gotOK, wantLabel, wantOK)
					return false
				}
				idx, idxOK := frozen.ClassifyIndex(v)
				if idxOK != wantOK {
					return false
				}
				if wantOK && frozen.Labels()[idx] != wantLabel {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFrozenSeesThroughLaterInterning pins the OOV contract: grams
// interned into the shared dictionary *after* a classifier froze, and
// so beyond its likelihood table, must classify exactly like grams the
// dictionary has never seen.
func TestFrozenSeesThroughLaterInterning(t *testing.T) {
	nb := NewNaiveBayes()
	nb.Train(relational.S("apple pie"), "food")
	nb.Train(relational.S("quartz rock"), "mineral")
	dict := tokenize.NewDict()
	frozen := nb.Freeze(dict)
	// Intern grams of a value unrelated to the training vocabulary.
	for g := range tokenize.TrigramSeq("zzyzx road") {
		dict.Intern(g)
	}
	dict.Freeze()
	for _, v := range []relational.Value{
		relational.S("zzyzx road"), // in dict, beyond the frozen table
		relational.S("unseen gramless"),
		relational.S(""),
		relational.Null,
	} {
		want, wantOK := nb.Classify(v)
		got, ok := frozen.Classify(v)
		if ok != wantOK || got != want {
			t.Errorf("Classify(%v) = %q,%v, live %q,%v", v, got, ok, want, wantOK)
		}
	}
}

func TestFrozenClassifyAllocsNothing(t *testing.T) {
	nb := NewNaiveBayes()
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a.x", "b.y", "c.z"}
	for i := 0; i < 200; i++ {
		nb.Train(randomValue(rng), labels[rng.Intn(len(labels))])
	}
	dict := tokenize.NewDict()
	frozen := nb.Freeze(dict)
	dict.Freeze()
	v := relational.S("alpha widget 42")
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := frozen.ClassifyIndex(v); !ok {
			t.Fatal("not trained")
		}
	}); n != 0 {
		t.Errorf("frozen Classify allocated %v times/op, want 0", n)
	}
}

// benchTrainedNB returns one live classifier trained like a target
// classifier (labels = target columns, many rows), plus its frozen form.
func benchTrainedNB(b *testing.B) (*NaiveBayes, *FrozenNaiveBayes) {
	b.Helper()
	nb := NewNaiveBayes()
	rng := rand.New(rand.NewSource(11))
	labels := []string{"book.title", "book.author", "book.publisher", "cd.artist", "cd.label", "dvd.studio"}
	words := []string{"quantum", "garden", "sonata", "metro", "ember", "willow", "cobalt", "merchant"}
	for i := 0; i < 3000; i++ {
		v := relational.S(words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))])
		nb.Train(v, labels[rng.Intn(len(labels))])
	}
	dict := tokenize.NewDict()
	f := nb.Freeze(dict)
	dict.Freeze()
	return nb, f
}

func BenchmarkNaiveBayesClassifyLive(b *testing.B) {
	nb, _ := benchTrainedNB(b)
	v := relational.S("cobalt garden express")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := nb.Classify(v); !ok {
			b.Fatal("untrained")
		}
	}
}

func BenchmarkNaiveBayesClassifyFrozen(b *testing.B) {
	_, f := benchTrainedNB(b)
	v := relational.S("cobalt garden express")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.ClassifyIndex(v); !ok {
			b.Fatal("untrained")
		}
	}
}

func BenchmarkGaussianClassifyFrozen(b *testing.B) {
	g := NewGaussian()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		g.Train(relational.F(rng.NormFloat64()*10+float64(i%3)*40), fmt.Sprintf("t.c%d", i%3))
	}
	f := g.Freeze()
	v := relational.F(41.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.ClassifyIndex(v); !ok {
			b.Fatal("untrained")
		}
	}
}

// TestClassifyIDsAgreesWithClassifyIndex: classifying a value's
// pre-tokenized gram IDs — known grams by dictionary ID, unknown ones
// either as NoID or under an out-of-vocabulary numbering from the
// dictionary's end, in first-occurrence order — returns exactly what
// ClassifyIndex returns on the value itself.
func TestClassifyIDsAgreesWithClassifyIndex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"book.title", "music.title", "inv.name"}
		live := NewNaiveBayes()
		for i, n := 0, rng.Intn(60); i < n; i++ {
			live.Train(randomValue(rng), labels[rng.Intn(len(labels))])
		}
		dict := tokenize.NewDict()
		frozen := live.Freeze(dict)
		dict.Freeze()
		if frozen.Dict() != dict {
			return false
		}
		oov := map[string]uint32{}
		for probe := 0; probe < 40; probe++ {
			v := randomValue(rng)
			var noID, numbered []uint32
			for g := range tokenize.TrigramSeq(v.Str()) {
				id, ok := dict.Lookup(g)
				noID = append(noID, id)
				if !ok {
					if id, ok = oov[g]; !ok {
						id = uint32(dict.Len() + len(oov))
						oov[g] = id
					}
				}
				numbered = append(numbered, id)
			}
			want, wantOK := frozen.ClassifyIndex(v)
			for _, ids := range [][]uint32{noID, numbered} {
				got, gotOK := frozen.ClassifyIDs(ids)
				if got != want || gotOK != wantOK {
					t.Logf("%v: ClassifyIDs (%d,%v) != ClassifyIndex (%d,%v)", v, got, gotOK, want, wantOK)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
