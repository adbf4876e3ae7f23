package classify_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ctxmatch/internal/classify"
	"ctxmatch/internal/core"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/snapshot"
	"ctxmatch/internal/tokenize"
)

// oracleTables trains the live Naive Bayes over every non-NULL value of
// every string column of tgt, labelled "Table.attr", and freezes it
// over a building copy of dict: the tables the compiled target
// classifier must reproduce. It fails when the freeze interns a gram
// dict lacks, which would leave the compiled table short.
func oracleTables(t *testing.T, tgt *relational.Schema, dict *tokenize.Dict) *classify.RawNaiveBayes {
	t.Helper()
	nb := classify.NewNaiveBayes()
	for _, tab := range tgt.Tables {
		for _, a := range tab.Attrs {
			if a.Type.Domain() != relational.DomainString {
				continue
			}
			i := tab.AttrIndex(a.Name)
			for _, row := range tab.Rows {
				if !row[i].IsNull() {
					nb.Train(row[i], tab.Name+"."+a.Name)
				}
			}
		}
	}
	clone := tokenize.NewDict()
	for id := 0; id < dict.Len(); id++ {
		clone.Intern(dict.Gram(uint32(id)))
	}
	raw := nb.Freeze(clone).Raw()
	if clone.Len() != dict.Len() {
		t.Fatalf("classifier vocabulary holds %d grams the dictionary lacks", clone.Len()-dict.Len())
	}
	return raw
}

// checkAgainstOracle reads the handle's frozen classifiers back from its
// snapshot and compares the string domain's tables with the oracle's,
// bit for bit. The string classifier must exist exactly when the
// catalog has a string attribute.
func checkAgainstOracle(t *testing.T, step string, pt *core.PreparedTarget) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := pt.WriteSnapshot(&buf); err != nil {
		t.Fatalf("%s: WriteSnapshot: %v", step, err)
	}
	a, _, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatalf("%s: snapshot.Read: %v", step, err)
	}
	hasString := false
	for _, tab := range a.Schema.Tables {
		for _, attr := range tab.Attrs {
			hasString = hasString || attr.Type.Domain() == relational.DomainString
		}
	}
	fc := a.Classifiers[relational.DomainString]
	if (fc != nil) != hasString {
		t.Fatalf("%s: string classifier present %v, string attribute present %v", step, fc != nil, hasString)
	}
	if fc == nil {
		return
	}
	nb, ok := fc.(*classify.FrozenNaiveBayes)
	if !ok {
		t.Fatalf("%s: string classifier is %T", step, fc)
	}
	if diff := classify.DiffRaw(nb.Raw(), oracleTables(t, a.Schema, a.Dict)); diff != "" {
		t.Fatalf("%s: compiled tables differ from the trained and frozen oracle: %s", step, diff)
	}
}

// edgeCatalog holds the string columns the compile must get right: the
// columns "a.b"."c" and "a"."b.c" share the label "a.b.c", one column
// is all NULL (no label), one holds only empty strings (a label with no
// grams), and one mixes empty strings, NULLs and text.
func edgeCatalog(rng *rand.Rand) *relational.Schema {
	words := []string{"velvet", "stone", "harbor", "quartz", "ember", "willow", "7-up", "ÉCLAIR"}
	word := func() relational.Value {
		return relational.S(words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))])
	}
	ab := relational.NewTable("a.b",
		relational.Attribute{Name: "c", Type: relational.String},
		relational.Attribute{Name: "n", Type: relational.Int})
	a := relational.NewTable("a",
		relational.Attribute{Name: "b.c", Type: relational.Text},
		relational.Attribute{Name: "nulls", Type: relational.String},
		relational.Attribute{Name: "blank", Type: relational.String},
		relational.Attribute{Name: "mixed", Type: relational.String},
		relational.Attribute{Name: "flag", Type: relational.Bool})
	book := relational.NewTable("book",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real})
	for i := 0; i < 24; i++ {
		ab.Append(relational.Tuple{word(), relational.I(i)})
		mixed := word()
		switch i % 3 {
		case 1:
			mixed = relational.S("")
		case 2:
			mixed = relational.Null
		}
		a.Append(relational.Tuple{word(), relational.Null, relational.S(""), mixed, relational.B(i%2 == 0)})
		book.Append(relational.Tuple{word(), relational.F(float64(i) * 1.5)})
	}
	return relational.NewSchema("edge", ab, a, book)
}

// cappedEngine is the default engine with its n-gram matcher sampling
// at most maxValues values per column.
func cappedEngine(maxValues int) *match.Engine {
	eng := match.NewEngine()
	for i, m := range eng.Matchers {
		if ng, ok := m.(match.ValueNGramMatcher); ok {
			ng.MaxValues = maxValues
			eng.Matchers[i] = ng
		}
	}
	return eng
}

// TestTargetClassifierMatchesTrainedOracle: the string-domain target
// classifier a prepared catalog carries, compiled from the feature
// layer's column vectors, equals bit for bit the classifier trained on
// the catalog's values and frozen — after Prepare and after each step
// of an Update chain that replaces, adds and drops a table, at 1, 2 and
// 8 workers. The catalogs cover shared labels, all-NULL and gramless
// columns, no string column, only NULL strings (untrained) and an
// engine whose value cap samples the columns. It lives beside the
// oracle, NaiveBayes.Freeze, which only this package's tests can reach.
func TestTargetClassifierMatchesTrainedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	noStrings := relational.NewTable("m",
		relational.Attribute{Name: "n", Type: relational.Int},
		relational.Attribute{Name: "x", Type: relational.Real},
		relational.Attribute{Name: "f", Type: relational.Bool})
	onlyNulls := relational.NewTable("u",
		relational.Attribute{Name: "s", Type: relational.String},
		relational.Attribute{Name: "n", Type: relational.Int})
	for i := 0; i < 12; i++ {
		noStrings.Append(relational.Tuple{relational.I(i), relational.F(float64(i) / 3), relational.B(i%3 == 0)})
		onlyNulls.Append(relational.Tuple{relational.Null, relational.I(i)})
	}
	fleet := datagen.Inventory(datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 11}).Target
	cases := []struct {
		name string
		tgt  *relational.Schema
		eng  *match.Engine
	}{
		{"edge", edgeCatalog(rng), match.NewEngine()},
		{"no-string-column", relational.NewSchema("numeric", noStrings), match.NewEngine()},
		{"untrained", relational.NewSchema("untrained", onlyNulls), match.NewEngine()},
		{"capped-edge", edgeCatalog(rng), cappedEngine(3)},
		{"capped-fleet", fleet, cappedEngine(10)},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opt := core.DefaultOptions()
				opt.Engine = tc.eng
				opt.Parallelism = workers
				pt, err := core.PrepareTarget(context.Background(), tc.tgt, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, "prepare", pt)
				first := tc.tgt.Tables[0]
				drop := "annex"
				if n := len(tc.tgt.Tables); n > 1 {
					drop = tc.tgt.Tables[n-1].Name
				}
				steps := []struct {
					name  string
					delta core.Delta
				}{
					{"replace", core.Delta{Replace: []*relational.Table{{Name: first.Name, Attrs: first.Attrs, Rows: first.Rows[1:]}}}},
					{"add", core.Delta{Add: []*relational.Table{{Name: "annex", Attrs: first.Attrs, Rows: first.Rows[:len(first.Rows)/2]}}}},
					{"drop", core.Delta{Drop: []string{drop}}},
				}
				for _, s := range steps {
					if pt, err = pt.Update(context.Background(), s.delta); err != nil {
						t.Fatalf("%s: %v", s.name, err)
					}
					checkAgainstOracle(t, s.name, pt)
				}
			})
		}
	}
}
