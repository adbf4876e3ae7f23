package match

import (
	"reflect"
	"slices"
	"testing"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// updateFixture builds a three-table schema mixing string and numeric
// columns, plus an updated variant of it: the first table replaced with
// a row-changed copy, the last dropped, and a new table appended.
func updateFixture() (base, updated *relational.Schema, touched func(*relational.Table) bool) {
	books := relational.NewTable("books",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	for _, r := range []struct {
		t string
		p float64
	}{{"heart of darkness", 12}, {"leaves of grass", 9}, {"a secret history", 14}} {
		books.Append(relational.Tuple{relational.S(r.t), relational.F(r.p)})
	}
	music := relational.NewTable("music",
		relational.Attribute{Name: "album", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	music.Append(relational.Tuple{relational.S("abbey road"), relational.F(10)})
	music.Append(relational.Tuple{relational.S("hotel california"), relational.F(11)})
	extra := relational.NewTable("extra",
		relational.Attribute{Name: "note", Type: relational.Text},
	)
	extra.Append(relational.Tuple{relational.S("winter garden letters")})
	base = relational.NewSchema("base", books, music, extra)

	booksV2 := relational.NewTable("books",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	booksV2.Append(relational.Tuple{relational.S("heart of darkness"), relational.Null})
	booksV2.Append(relational.Tuple{relational.S("river of shadow"), relational.F(17)})
	added := relational.NewTable("added",
		relational.Attribute{Name: "name", Type: relational.Text},
		relational.Attribute{Name: "qty", Type: relational.Int},
	)
	added.Append(relational.Tuple{relational.S("velvet stone"), relational.F(3)})
	// music carries over by pointer — the contract UpdateTargetFeatures
	// replays untouched columns under.
	updated = relational.NewSchema("base", booksV2, music, added)
	fresh := map[*relational.Table]bool{booksV2: true, added: true}
	return base, updated, func(t *relational.Table) bool { return fresh[t] }
}

// buildFeatures builds tgt's feature layer from nothing into a fresh
// dictionary and freezes it — the shape Prepare pins.
func buildFeatures(tgt *relational.Schema) *TargetFeatures {
	d := tokenize.NewDict()
	tf := UpdateTargetFeatures(nil, tgt, d, nil, 1)
	d.Freeze()
	return tf
}

// TestUpdateTargetFeaturesMatchesFreshBuild: the delta path must
// reproduce, field for field, the layer a build from nothing produces
// over the updated schema — gram vectors, merge orders, numeric
// columns and ranges, name vectors, and the rebuilt candidate index —
// at 1 and 4 workers, from a built old layer and from one exported and
// restored the way a snapshot does. The two builds advance different
// counters: a delta is one TargetUpdates, a build from nothing one
// TargetPrecomputes.
func TestUpdateTargetFeaturesMatchesFreshBuild(t *testing.T) {
	for _, run := range []struct {
		workers  int
		restored bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		workers := run.workers
		base, updated, touched := updateFixture()
		old := UpdateTargetFeatures(nil, base, tokenize.NewDict(), nil, workers)
		if run.restored {
			old.dict.Freeze()
			raw, err := old.ExportRaw()
			if err != nil {
				t.Fatal(err)
			}
			if old, err = RestoreTargetFeatures(base, old.dict, raw); err != nil {
				t.Fatal(err)
			}
		}

		precomputes, updates := TargetPrecomputes(), TargetUpdates()
		got := UpdateTargetFeatures(old, updated, tokenize.NewDict(), touched, workers)
		if TargetUpdates() != updates+1 || TargetPrecomputes() != precomputes {
			t.Error("delta rebuild not counted as exactly one update")
		}
		precomputes, updates = TargetPrecomputes(), TargetUpdates()
		want := UpdateTargetFeatures(nil, updated, tokenize.NewDict(), nil, workers)
		if TargetPrecomputes() != precomputes+1 || TargetUpdates() != updates {
			t.Error("build from nothing not counted as exactly one precompute")
		}

		if !reflect.DeepEqual(got.ngrams, want.ngrams) {
			t.Errorf("workers=%d: ngrams diverge", workers)
		}
		if !reflect.DeepEqual(got.colOrder, want.colOrder) {
			t.Errorf("workers=%d: colOrder diverges", workers)
		}
		if !reflect.DeepEqual(got.numbers, want.numbers) {
			t.Errorf("workers=%d: numbers diverge", workers)
		}
		if !reflect.DeepEqual(got.numRanges, want.numRanges) || len(got.numRanges) != len(got.numbers) {
			t.Errorf("workers=%d: numRanges diverge", workers)
		}
		if !reflect.DeepEqual(got.names, want.names) {
			t.Errorf("workers=%d: name vectors diverge", workers)
		}
		if !reflect.DeepEqual(got.strCols, want.strCols) {
			t.Errorf("workers=%d: string column order diverges", workers)
		}
		if got.dict.Len() != want.dict.Len() {
			t.Errorf("workers=%d: dict sized %d, fresh %d", workers, got.dict.Len(), want.dict.Len())
		}
		for id := 0; id < got.dict.Len(); id++ {
			if got.dict.Gram(uint32(id)) != want.dict.Gram(uint32(id)) {
				t.Fatalf("workers=%d: dict diverges at id %d: %q vs %q",
					workers, id, got.dict.Gram(uint32(id)), want.dict.Gram(uint32(id)))
			}
		}
		if got.index == nil {
			t.Fatal("layer missing its candidate index")
		}
		if !reflect.DeepEqual(got.colDense, want.colDense) {
			t.Errorf("workers=%d: dense column mapping diverges", workers)
		}
		if got.Target() != updated {
			t.Error("layer not bound to the updated schema")
		}
	}
}

// TestRestoreTargetFeaturesRejects: a flat layer whose vector IDs reach
// past the dictionary, whose merge order is not a permutation of its
// column's IDs, or which leaves out a column fails to restore, while
// the untouched export restores.
func TestRestoreTargetFeaturesRejects(t *testing.T) {
	base, _, _ := updateFixture()
	tf := buildFeatures(base)
	fresh := func() *RawTargetFeatures {
		raw, err := tf.ExportRaw()
		if err != nil {
			t.Fatal(err)
		}
		raw.NGrams = slices.Clone(raw.NGrams)
		raw.Orders = slices.Clone(raw.Orders)
		return raw
	}
	if _, err := RestoreTargetFeatures(base, tf.dict, fresh()); err != nil {
		t.Fatalf("untouched export: %v", err)
	}
	edits := map[string]func(raw *RawTargetFeatures){
		"vector id past the dictionary": func(raw *RawTargetFeatures) {
			v := &raw.NGrams[0]
			v.IDs = slices.Clone(v.IDs)
			v.IDs[len(v.IDs)-1] = uint32(tf.dict.Len())
		},
		"order repeats an id": func(raw *RawTargetFeatures) {
			o := slices.Clone(raw.Orders[0])
			o[len(o)-1] = o[0]
			raw.Orders[0] = o
		},
		"order lists a foreign id": func(raw *RawTargetFeatures) {
			o := slices.Clone(raw.Orders[0])
			for _, id := range raw.Orders[1] {
				if !slices.Contains(raw.NGrams[0].IDs, id) {
					o[0] = id
					break
				}
			}
			raw.Orders[0] = o
		},
		"order one short": func(raw *RawTargetFeatures) {
			raw.Orders[0] = raw.Orders[0][1:]
		},
		"order missing": func(raw *RawTargetFeatures) {
			raw.Orders = raw.Orders[1:]
		},
		"column missing": func(raw *RawTargetFeatures) {
			raw.Numbers = raw.Numbers[1:]
			raw.NumRanges = raw.NumRanges[1:]
		},
	}
	for name, edit := range edits {
		raw := fresh()
		edit(raw)
		if _, err := RestoreTargetFeatures(base, tf.dict, raw); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}

// TestUpdateTargetFeaturesNilSchema: a nil updated schema yields an
// empty layer rather than a panic.
func TestUpdateTargetFeaturesNilSchema(t *testing.T) {
	base, _, _ := updateFixture()
	old := UpdateTargetFeatures(nil, base, tokenize.NewDict(), nil, 1)
	tf := UpdateTargetFeatures(old, nil, tokenize.NewDict(), func(*relational.Table) bool { return false }, 1)
	if tf.Columns() != 0 {
		t.Errorf("nil schema produced %d columns", tf.Columns())
	}
}
