package core

import (
	"math/rand"
	"slices"
	"testing"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
)

// TestProjectedTagsMatchValueTags: a tagger classifying from the
// request's projected gram IDs tags every row exactly as one that
// tokenizes each value — over a base table and over a select-only view
// of it (the conjunctive stage's input), with NULL and gramless values
// present, and for both halves of the split.
func TestProjectedTagsMatchValueTags(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src, tgt := invFixture(rng, 240, 4)
	for ri, row := range src.Rows {
		switch ri % 9 {
		case 2:
			row[0] = relational.Value{}
		case 5:
			row[3] = relational.S("")
		}
	}
	arts := updateTargetArtifacts(match.NewEngine(), nil, tgt, nil, true, 1)
	proj := match.FeaturizeSource(relational.NewSchema("RS", src), 1).ProjectDict(arts.dict)
	books := src.Select("books", relational.Eq{Attr: "StockStatus", Value: src.Rows[0][2]})
	for _, whole := range []*relational.Table{src, books} {
		trainRows, testRows := relational.SplitRows(whole.Len(), 2.0/3, rng)
		s := &split{
			whole: whole, train: whole.Restrict(trainRows), test: whole.Restrict(testRows),
			trainRows: trainRows, testRows: testRows,
		}
		byValue := newTagger(arts.fcls, nil)
		byID := newTagger(arts.fcls, proj)
		for _, h := range []string{"Title", "Code", "Price"} {
			if _, _, _, ok := byID.projected(whole, h, arts.fcls.byDomain[relational.DomainString]); !ok && h != "Price" {
				t.Fatalf("%s.%s: string column not served from the projection", whole.Name, h)
			}
			for _, half := range []struct {
				t    *relational.Table
				rows []int
			}{{s.train, s.trainRows}, {s.test, s.testRows}} {
				want := byValue.tagsFor(s, half.t, half.rows, h)
				got := byID.tagsFor(s, half.t, half.rows, h)
				if !slices.Equal(got, want) {
					t.Fatalf("%s.%s: projected tags diverge from value tags", whole.Name, h)
				}
			}
		}
	}
}
