package classify_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"unsafe"

	"ctxmatch/internal/classify"
	"ctxmatch/internal/core"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/relational"
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

// stringClassifier returns the string-domain target classifier pt
// pins, nil when it has none. core keeps its classifier set unexported
// — matching needs no accessor and snapshots no longer carry it — so
// the test reads the field by reflection.
func stringClassifier(pt *core.PreparedTarget) classify.FrozenClassifier {
	fcls := reflect.ValueOf(pt).Elem().FieldByName("arts").Elem().FieldByName("fcls")
	if fcls.IsNil() {
		return nil
	}
	byDomain := (*[relational.DomainBool + 1]classify.FrozenClassifier)(unsafe.Pointer(fcls.Elem().FieldByName("byDomain").UnsafeAddr()))
	return byDomain[relational.DomainString]
}

// checkAgainstOracle compares the string-domain tables of the handle's
// classifiers with the oracle's, bit for bit. The string classifier
// must exist exactly when the catalog has a string attribute.
func checkAgainstOracle(t *testing.T, step string, pt *core.PreparedTarget) {
	t.Helper()
	tgt := pt.Target()
	hasString := false
	for _, tab := range tgt.Tables {
		for _, attr := range tab.Attrs {
			hasString = hasString || attr.Type.Domain() == relational.DomainString
		}
	}
	fc := stringClassifier(pt)
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
	if diff := classify.DiffRaw(nb.Raw(), oracleTables(t, tgt, pt.Features().Dict())); diff != "" {
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

// TestTargetClassifierMatchesTrainedOracle: the string-domain target
// classifier a prepared catalog carries, compiled from the feature
// layer's column vectors, equals bit for bit the classifier trained on
// the catalog's values and frozen — after Prepare, after a snapshot
// round trip (a load compiles the classifiers anew) and after each step
// of an Update chain that replaces, adds and drops a table, at 1, 2 and
// 8 workers. The catalogs cover shared labels, all-NULL and gramless
// columns, no string column, only NULL strings (untrained) and a
// generated multi-table inventory. It lives beside the oracle,
// NaiveBayes.Freeze, which only this package's tests can reach.
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
	}{
		{"edge", edgeCatalog(rng)},
		{"no-string-column", relational.NewSchema("numeric", noStrings)},
		{"untrained", relational.NewSchema("untrained", onlyNulls)},
		{"fleet", fleet},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opt := core.DefaultOptions()
				opt.Parallelism = workers
				pt, err := core.PrepareTarget(context.Background(), tc.tgt, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, "prepare", pt)
				var buf bytes.Buffer
				if _, err := pt.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				restored, err := core.LoadPreparedTarget(&buf)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, "load", restored)
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

// storedV1NaiveBayes decodes the string-domain Naive Bayes tables a
// format-1 snapshot stored in its classifier section (id 6), which
// format 2 no longer writes: a tag byte (1, Naive Bayes; the string
// domain comes first), the labels (a u32 count, then u32-length-
// prefixed strings), the log priors and OOV terms as u32-length-
// prefixed f64 arrays, the u32 table gram count, the likelihood table
// as another such array, and a trained byte. Each array's data starts
// 8-byte aligned within the section.
func storedV1NaiveBayes(t *testing.T, data []byte) *classify.RawNaiveBayes {
	t.Helper()
	var p []byte
	for i := 0; i < int(binary.LittleEndian.Uint32(data[8:])); i++ {
		e := data[16+24*i:]
		if binary.LittleEndian.Uint32(e) == 6 {
			off := binary.LittleEndian.Uint64(e[8:])
			p = data[off : off+binary.LittleEndian.Uint64(e[16:])]
		}
	}
	if len(p) == 0 || p[0] != 1 {
		t.Fatal("the snapshot stores no string-domain Naive Bayes")
	}
	pos := 1
	u32 := func() int {
		v := int(binary.LittleEndian.Uint32(p[pos:]))
		pos += 4
		return v
	}
	f64s := func() []float64 {
		out := make([]float64, u32())
		pos = (pos + 7) &^ 7
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[pos:]))
			pos += 8
		}
		return out
	}
	raw := &classify.RawNaiveBayes{}
	for n := u32(); n > 0; n-- {
		l := u32()
		raw.Labels = append(raw.Labels, string(p[pos:pos+l]))
		pos += l
	}
	raw.LogPrior = f64s()
	raw.OOV = f64s()
	raw.TableGrams = u32()
	raw.Lik = f64s()
	raw.Trained = p[pos] != 0
	return raw
}

// TestV1LikelihoodTableReprepared: loading the format-1 golden snapshot
// re-prepares its catalog, and the string-domain tables compiled then
// equal, bit for bit, the ones the file stored — the upgrade to format
// 2 loses nothing the classifier held.
func TestV1LikelihoodTableReprepared(t *testing.T) {
	data, err := os.ReadFile("../snapshot/testdata/v1-small.snap")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := core.LoadPreparedTarget(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	nb, ok := stringClassifier(pt).(*classify.FrozenNaiveBayes)
	if !ok {
		t.Fatal("the re-prepared catalog has no string-domain Naive Bayes")
	}
	stored := storedV1NaiveBayes(t, data)
	if stored.TableGrams == 0 || len(stored.Labels) == 0 {
		t.Fatalf("stored table is empty: %d grams, %d labels", stored.TableGrams, len(stored.Labels))
	}
	if diff := classify.DiffRaw(nb.Raw(), stored); diff != "" {
		t.Fatalf("re-prepared tables differ from the stored ones: %s", diff)
	}
}
