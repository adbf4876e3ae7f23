package match

import (
	"fmt"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// RawColumnRef addresses one column of a schema positionally — table
// index in Schema.Tables, attribute index in Table.Attrs — the stable
// form a snapshot stores in place of the pointer-keyed colKey.
type RawColumnRef struct {
	Table, Attr int
}

// RawVector is the serializable form of a tokenize.IDVector: the sorted
// parallel ID/count slices plus the norm cached at build time.
type RawVector struct {
	IDs    []uint32
	Counts []float64
	Norm   float64
}

// RawNumericColumn is one numeric column's cached values.
type RawNumericColumn struct {
	Ref    RawColumnRef
	Values []float64
}

// RawNameVector is one attribute name's trigram vector.
type RawNameVector struct {
	Name string
	Vec  RawVector
}

// RawTargetFeatures is the flat, serializable form of TargetFeatures:
// every map re-keyed to positional column references, in the canonical
// schema-scan order UpdateTargetFeatures builds them, so export →
// restore reproduces the layer bit-for-bit.
type RawTargetFeatures struct {
	// StrCols lists the string-domain columns in schema order — the
	// dense column numbering of the candidate index — and NGrams holds
	// their vectors, parallel.
	StrCols []RawColumnRef
	NGrams  []RawVector
	// Numbers holds the numeric columns in schema order, and NumRanges
	// their [min, max] ranges, parallel.
	Numbers   []RawNumericColumn
	NumRanges [][2]float64
	// Names holds the attribute-name vectors in first-seen schema order.
	Names []RawNameVector
	// Orders holds each string column's gram merge order, parallel to
	// StrCols: the column's vector IDs in first-appearance order, which
	// a delta update replays into a fresh dictionary.
	Orders [][]uint32
	// Index is the candidate index in flat form, nil exactly when the
	// layer has no string column.
	Index *tokenize.RawIndex
}

// ExportRaw flattens the feature layer for serialization, re-keying
// every column to positional references against the layer's own schema.
func (tf *TargetFeatures) ExportRaw() (*RawTargetFeatures, error) {
	tableIdx := make(map[*relational.Table]int, len(tf.tgt.Tables))
	for i, t := range tf.tgt.Tables {
		tableIdx[t] = i
	}
	ref := func(key colKey) (RawColumnRef, error) {
		ti, ok := tableIdx[key.t]
		if !ok {
			return RawColumnRef{}, fmt.Errorf("match: column %s.%s references a table outside the schema", key.t.Name, key.attr)
		}
		ai := key.t.AttrIndex(key.attr)
		if ai < 0 {
			return RawColumnRef{}, fmt.Errorf("match: column %s.%s references an unknown attribute", key.t.Name, key.attr)
		}
		return RawColumnRef{Table: ti, Attr: ai}, nil
	}
	raw := &RawTargetFeatures{}
	for _, key := range tf.strCols {
		r, err := ref(key)
		if err != nil {
			return nil, err
		}
		raw.StrCols = append(raw.StrCols, r)
		raw.NGrams = append(raw.NGrams, exportVector(tf.ngrams[key]))
		raw.Orders = append(raw.Orders, tf.colOrder[key])
	}
	// Numeric columns in the schema-scan order the precompute walks.
	for ti, t := range tf.tgt.Tables {
		for ai, a := range t.Attrs {
			key := colKey{t, a.Name}
			vals, ok := tf.numbers[key]
			if !ok {
				continue
			}
			raw.Numbers = append(raw.Numbers, RawNumericColumn{Ref: RawColumnRef{Table: ti, Attr: ai}, Values: vals})
			raw.NumRanges = append(raw.NumRanges, tf.numRanges[key])
		}
	}
	// Name vectors in first-seen schema order — the precompute's own
	// insertion order.
	seen := make(map[string]bool, len(tf.names))
	for _, t := range tf.tgt.Tables {
		for _, a := range t.Attrs {
			if seen[a.Name] {
				continue
			}
			seen[a.Name] = true
			v, ok := tf.names[a.Name]
			if !ok {
				return nil, fmt.Errorf("match: attribute %q has no name vector", a.Name)
			}
			raw.Names = append(raw.Names, RawNameVector{Name: a.Name, Vec: exportVector(v)})
		}
	}
	if len(raw.Names) != len(tf.names) {
		return nil, fmt.Errorf("match: %d name vectors for %d schema attribute names", len(tf.names), len(raw.Names))
	}
	if tf.index != nil {
		raw.Index = tf.index.Raw()
	}
	return raw, nil
}

// RestoreTargetFeatures reconstructs a TargetFeatures over tgt and dict
// from its flat form, validating every positional reference, vector
// shape and gram ID the matching hot path and the classifier compile
// index by: every vector ID lies below dict's size, and every merge
// order is a permutation of its column's vector IDs, so a delta update
// of the restored layer replays exactly the grams each column holds. A
// layer with string columns must carry their candidate index, which is
// rebuilt over the restored string-column vectors (the exact pointers
// the score rows address) with the dense column numbering reconstituted
// from StrCols.
func RestoreTargetFeatures(tgt *relational.Schema, dict *tokenize.Dict, raw *RawTargetFeatures) (*TargetFeatures, error) {
	tf := &TargetFeatures{
		tgt:       tgt,
		dict:      dict,
		ngrams:    map[colKey]*tokenize.IDVector{},
		numbers:   map[colKey][]float64{},
		numRanges: map[colKey][2]float64{},
		names:     map[string]*tokenize.IDVector{},
		colOrder:  map[colKey][]uint32{},
	}
	resolve := func(r RawColumnRef, dom relational.Domain) (colKey, error) {
		if r.Table < 0 || r.Table >= len(tgt.Tables) {
			return colKey{}, fmt.Errorf("match: column references table %d of %d", r.Table, len(tgt.Tables))
		}
		t := tgt.Tables[r.Table]
		if r.Attr < 0 || r.Attr >= len(t.Attrs) {
			return colKey{}, fmt.Errorf("match: column references attribute %d of %d in table %s", r.Attr, len(t.Attrs), t.Name)
		}
		a := t.Attrs[r.Attr]
		if a.Type.Domain() != dom {
			return colKey{}, fmt.Errorf("match: column %s.%s has domain %v, want %v", t.Name, a.Name, a.Type.Domain(), dom)
		}
		return colKey{t, a.Name}, nil
	}
	if len(raw.NGrams) != len(raw.StrCols) || len(raw.Orders) != len(raw.StrCols) {
		return nil, fmt.Errorf("match: %d ngram vectors and %d merge orders for %d string columns", len(raw.NGrams), len(raw.Orders), len(raw.StrCols))
	}
	// mark[id] is 2i+1 while column i's vector holds id and its order
	// has not yet listed it, 2i+2 once the order has.
	var mark []uint32
	if len(raw.StrCols) > 0 {
		mark = make([]uint32, dict.Len())
	}
	for i, r := range raw.StrCols {
		key, err := resolve(r, relational.DomainString)
		if err != nil {
			return nil, err
		}
		if _, dup := tf.ngrams[key]; dup {
			return nil, fmt.Errorf("match: duplicate string column %s.%s", key.t.Name, key.attr)
		}
		v, err := restoreVector(raw.NGrams[i], dict.Len())
		if err != nil {
			return nil, err
		}
		order := raw.Orders[i]
		if len(order) != len(v.IDs) {
			return nil, fmt.Errorf("match: column %s.%s has %d grams but a %d-gram merge order", key.t.Name, key.attr, len(v.IDs), len(order))
		}
		in, seen := uint32(2*i+1), uint32(2*i+2)
		for _, id := range v.IDs {
			mark[id] = in
		}
		for _, id := range order {
			if int(id) >= len(mark) || mark[id] != in {
				return nil, fmt.Errorf("match: column %s.%s merge order is not a permutation of its gram IDs", key.t.Name, key.attr)
			}
			mark[id] = seen
		}
		tf.ngrams[key] = v
		tf.colOrder[key] = order
		tf.strCols = append(tf.strCols, key)
	}
	if len(raw.NumRanges) != len(raw.Numbers) {
		return nil, fmt.Errorf("match: %d numeric ranges for %d numeric columns", len(raw.NumRanges), len(raw.Numbers))
	}
	if (raw.Index != nil) != (len(raw.StrCols) > 0) {
		return nil, fmt.Errorf("match: %d string columns, candidate index present: %v", len(raw.StrCols), raw.Index != nil)
	}
	for i, nc := range raw.Numbers {
		key, err := resolve(nc.Ref, relational.DomainNumber)
		if err != nil {
			return nil, err
		}
		if _, dup := tf.numbers[key]; dup {
			return nil, fmt.Errorf("match: duplicate numeric column %s.%s", key.t.Name, key.attr)
		}
		tf.numbers[key] = nc.Values
		tf.numRanges[key] = raw.NumRanges[i]
	}
	for _, nv := range raw.Names {
		if _, dup := tf.names[nv.Name]; dup {
			return nil, fmt.Errorf("match: duplicate name vector %q", nv.Name)
		}
		v, err := restoreVector(nv.Vec, dict.Len())
		if err != nil {
			return nil, err
		}
		tf.names[nv.Name] = v
	}
	// Matching, the classifier compile and a delta update look up every
	// string and numeric column and every attribute name of tgt.
	for _, t := range tgt.Tables {
		for _, a := range t.Attrs {
			key := colKey{t, a.Name}
			_, num := tf.numbers[key]
			switch dom := a.Type.Domain(); {
			case dom == relational.DomainString && tf.ngrams[key] == nil,
				dom == relational.DomainNumber && !num,
				tf.names[a.Name] == nil:
				return nil, fmt.Errorf("match: column %s.%s has no restored features", t.Name, a.Name)
			}
		}
	}
	if raw.Index != nil {
		cols := make([]*tokenize.IDVector, len(tf.strCols))
		tf.colDense = make(map[colKey]int, len(tf.strCols))
		for i, key := range tf.strCols {
			cols[i] = tf.ngrams[key]
			tf.colDense[key] = i
		}
		ix, err := tokenize.NewIndexFromRaw(cols, raw.Index)
		if err != nil {
			return nil, err
		}
		tf.index = ix
	}
	return tf, nil
}

func exportVector(v *tokenize.IDVector) RawVector {
	return RawVector{IDs: v.IDs, Counts: v.Counts, Norm: v.Norm()}
}

// restoreVector validates the parallel-slice shape, ID ordering and ID
// range (below grams, the dictionary size) the merge walks, the
// candidate index and the classifier compile rely on before wrapping
// the slices.
func restoreVector(r RawVector, grams int) (*tokenize.IDVector, error) {
	if len(r.IDs) != len(r.Counts) {
		return nil, fmt.Errorf("match: vector has %d ids but %d counts", len(r.IDs), len(r.Counts))
	}
	for i := 1; i < len(r.IDs); i++ {
		if r.IDs[i] <= r.IDs[i-1] {
			return nil, fmt.Errorf("match: vector ids not strictly ascending at %d", i)
		}
	}
	if n := len(r.IDs); n > 0 && int64(r.IDs[n-1]) >= int64(grams) {
		return nil, fmt.Errorf("match: vector id %d outside the %d-gram dictionary", r.IDs[n-1], grams)
	}
	return tokenize.NewIDVector(r.IDs, r.Counts, r.Norm), nil
}
