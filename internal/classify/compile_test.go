package classify

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// TestCompileMatchesFreeze: compiling from per-column gram counts
// reproduces, bit for bit, the tables of a live classifier trained on
// the same non-NULL values and frozen over the same dictionary. The
// random columns mix NULLs, empty strings, numbers and booleans; some
// share a label, some hold no non-NULL value, sometimes none exist at
// all (the untrained case), and the dictionary holds grams no column
// has, as attribute-name grams in a feature layer do.
func TestCompileMatchesFreeze(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"a.b.c", "book.title", "cd.title", "inv.code"}
		d := tokenize.NewDict()
		for g := range tokenize.TrigramSeq("attribute name grams") {
			d.Intern(g)
		}
		live := NewNaiveBayes()
		var cols []Column
		b := tokenize.NewVectorBuilder()
		for c, n := 0, rng.Intn(6); c < n; c++ {
			col := Column{Label: labels[rng.Intn(len(labels))]}
			for r, rows := 0, rng.Intn(25); r < rows; r++ {
				v := randomValue(rng)
				if rng.Intn(4) == 0 {
					v = relational.S("")
				}
				if v.IsNull() {
					continue
				}
				b.AddTrigrams(d, v.Str())
				live.Train(v, col.Label)
				col.Values++
			}
			col.Grams = b.Build()
			cols = append(cols, col)
		}
		d.Freeze()
		got := CompileNaiveBayes(d, cols)

		// The oracle freezes into a building copy of the dictionary,
		// which already holds its whole vocabulary.
		clone := tokenize.NewDict()
		for id := 0; id < d.Len(); id++ {
			clone.Intern(d.Gram(uint32(id)))
		}
		want := live.Freeze(clone)
		if diff := DiffRaw(got.Raw(), want.Raw()); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return got.Dict() == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
