package match

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// projectionFixture is fixture's source with the edge cases a gram
// table must carry through: NULLs (which do not count toward value
// caps), values with no grams, mixed case and multi-byte runes (which
// fold), and grams no catalog column holds.
func projectionFixture(rng *rand.Rand, n int) (*relational.Table, *relational.Schema) {
	src, tgt := fixture(rng, n)
	for ri, row := range src.Rows {
		switch ri % 7 {
		case 1:
			row[0] = relational.Value{}
		case 3:
			row[2] = relational.S("")
		case 5:
			row[0] = relational.S("Ünïcode  TITLE zq" + row[0].Str())
		}
	}
	return src, tgt
}

// compileSegments is the reference both segment paths are checked
// against: it tokenizes one column value by value, looks every gram
// occurrence up in the dictionary, numbers unknown grams from the
// dictionary's end in first-occurrence order, and slot-encodes every
// row through maps.
func compileSegments(d *tokenize.Dict, t *relational.Table, attr string) *colSegments {
	segs := &colSegments{rows: make([][]int32, len(t.Rows))}
	i := t.AttrIndex(attr)
	if i >= 0 {
		oovBase := uint32(d.Len())
		oov := map[string]uint32{}
		raw := make([][]uint32, len(t.Rows))
		distinct := map[uint32]struct{}{}
		for ri, row := range t.Rows {
			v := row[i]
			if v.IsNull() {
				continue
			}
			seg := []uint32{}
			for g := range tokenize.TrigramSeq(v.Str()) {
				id, ok := d.Lookup(g)
				if !ok {
					id, ok = oov[g]
					if !ok {
						id = oovBase + uint32(len(oov))
						oov[g] = id
					}
				}
				seg = append(seg, id)
				distinct[id] = struct{}{}
			}
			raw[ri] = seg
		}
		segs.ids = make([]uint32, 0, len(distinct))
		for id := range distinct {
			segs.ids = append(segs.ids, id)
		}
		slices.Sort(segs.ids)
		segs.firstOOV = len(segs.ids)
		slotOf := make(map[uint32]int32, len(segs.ids))
		for slot, id := range segs.ids {
			slotOf[id] = int32(slot)
			if id >= oovBase && slot < segs.firstOOV {
				segs.firstOOV = slot
			}
		}
		for ri, seg := range raw {
			if seg == nil {
				continue
			}
			out := make([]int32, len(seg))
			for k, id := range seg {
				out[k] = slotOf[id]
			}
			segs.rows[ri] = out
		}
	}
	return segs
}

// TestProjectedSegmentsMatchCompiled: segments projected from the
// request's one tokenization — and those an unprojected bind builds by
// tokenizing the column alone — equal, field for field, the segments
// the re-tokenizing oracle compiles against the same dictionary: IDs,
// out-of-vocabulary numbering, the known/OOV split, and every row
// (NULL rows nil, gramless values empty but non-nil).
func TestProjectedSegmentsMatchCompiled(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src, tgt := projectionFixture(rng, 160)
	tf := buildFeatures(tgt)
	sf := FeaturizeSource(relational.NewSchema("RS", src), 2)
	proj := sf.ProjectDict(tf.dict)
	cache := acquireFeatureCache(tf)
	defer cache.release()
	for _, attr := range []string{"name", "code"} {
		want := compileSegments(tf.dict, src, attr)
		for path, got := range map[string]*colSegments{
			"projected":   proj.segments(src, attr),
			"unprojected": cache.compile(src, attr),
		} {
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: segments diverge from the oracle:\n got %+v\nwant %+v", path, attr, got, want)
			}
			for ri := range want.rows {
				if (got.rows[ri] == nil) != (want.rows[ri] == nil) {
					t.Fatalf("%s %s row %d: NULL marking diverges", path, attr, ri)
				}
			}
		}
	}
	if proj.segments(src, "price") != nil {
		t.Fatal("a numeric column was projected")
	}
}

// TestSourceColumnCounts: the gram counts and norm equal a direct
// count over every non-NULL value.
func TestSourceColumnCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src, _ := projectionFixture(rng, 90)
	sf := FeaturizeSource(relational.NewSchema("RS", src), 1)
	for _, attr := range []string{"name", "code"} {
		col := sf.Cols[sf.index[colKey{src, attr}]]
		ai := src.AttrIndex(attr)
		want := map[string]float64{}
		for _, row := range src.Rows {
			if row[ai].IsNull() {
				continue
			}
			for g := range tokenize.TrigramSeq(row[ai].Str()) {
				want[g]++
			}
		}
		counts, norm := col.Counts()
		var norm2 float64
		for k, g := range col.Grams {
			if counts[k] != want[g] {
				t.Fatalf("%s: gram %q counted %v, want %v", attr, g, counts[k], want[g])
			}
			norm2 += want[g] * want[g]
		}
		if norm != math.Sqrt(norm2) {
			t.Fatalf("%s: norm %v, want %v", attr, norm, math.Sqrt(norm2))
		}
	}
}

// TestProjectedBindMatchesUnprojected: a bind fed the request's
// projection scores bit-identically to one that tokenizes the source
// itself — standard matches and view vectors alike — at one and at
// four workers, and tokenizes nothing.
func TestProjectedBindMatchesUnprojected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src, tgt := projectionFixture(rng, 200)
	eng := NewEngine()
	tf := buildFeatures(tgt)
	view := src.Select("books", relational.Eq{Attr: "type", Value: relational.I(1)})
	for _, workers := range []int{1, 4} {
		plain := eng.BindParallel(src, tgt, tf, nil, workers)
		want := plain.StandardMatches(0)
		wantView := plain.cache.NGramVector(view, "name")

		proj := FeaturizeSource(relational.NewSchema("RS", src), workers).ProjectDict(tf.dict)
		before := SourceTokenizations()
		b := eng.BindParallel(src, tgt, tf, proj, workers)
		got := b.StandardMatches(0)
		gotView := b.cache.NGramVector(view, "name")
		if n := SourceTokenizations() - before; n != 0 {
			t.Fatalf("workers=%d: projected bind tokenized %d source columns, want 0", workers, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: projected standard matches diverge", workers)
		}
		if !reflect.DeepEqual(gotView, wantView) {
			t.Fatalf("workers=%d: projected view vector diverges", workers)
		}
		b.Release()
		plain.Release()
	}
}

// TestProjectionForeignDictionaryIgnored: a projection keyed in some
// other dictionary is never used — the bind falls back to tokenizing.
func TestProjectionForeignDictionaryIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	src, tgt := projectionFixture(rng, 60)
	eng := NewEngine()
	tf := buildFeatures(tgt)
	other := tokenize.NewDict()
	other.Freeze()
	proj := FeaturizeSource(relational.NewSchema("RS", src), 1).ProjectDict(other)
	b := eng.BindParallel(src, tgt, tf, proj, 1)
	defer b.Release()
	if b.cache.proj != nil {
		t.Fatal("a projection in a foreign dictionary was attached")
	}
}
