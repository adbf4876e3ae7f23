package match

import (
	"math"
	"sync/atomic"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// targetPrecomputes counts target feature layers built from nothing
// (UpdateTargetFeatures with no previous layer) process-wide, so tests
// can assert that prepared-target matching rescans no catalog columns.
var targetPrecomputes atomic.Int64

// TargetPrecomputes returns how many times a target feature layer has
// been built from nothing in this process.
func TargetPrecomputes() int64 { return targetPrecomputes.Load() }

// TargetFeatures holds the per-column derived features of one target
// schema — interned-gram ID vectors for string columns, numeric slices
// and their [min, max] ranges for number columns, attribute-name gram
// vectors — plus the gram dictionary they are keyed by, all
// precomputed once so that repeated Bind calls against the same
// long-lived target catalog skip the column scans and share one ID
// space. The struct is immutable after the owning dictionary is frozen
// and is then safe to share between concurrent Bounds.
type TargetFeatures struct {
	tgt       *relational.Schema
	dict      *tokenize.Dict
	ngrams    map[colKey]*tokenize.IDVector
	numbers   map[colKey][]float64
	numRanges map[colKey][2]float64
	names     map[string]*tokenize.IDVector

	// colOrder records, per string column, the shared-dictionary IDs of
	// the column's distinct grams in first-appearance (column-local
	// insertion) order — the MergeInto remap of the build. A delta
	// rebuild replays this order to reassign untouched columns' grams
	// into a fresh dictionary without rescanning any rows. Snapshots
	// store it, so restored layers delta-update too.
	colOrder map[colKey][]uint32

	// strCols lists the string-domain target columns in schema order —
	// the dense column numbering of the candidate index — and colDense
	// inverts it. index is the inverted gram-ID candidate index over
	// those columns, nil exactly when the schema has no string column.
	strCols  []colKey
	colDense map[colKey]int
	index    *tokenize.Index
}

// buildColumnVector aggregates the trigram vector of every non-null
// value of one column through the shared builder. Rows are walked in
// place — no intermediate column slice.
func buildColumnVector(b *tokenize.VectorBuilder, d *tokenize.Dict, t *relational.Table, attr string) *tokenize.IDVector {
	i := t.AttrIndex(attr)
	if i < 0 {
		return b.Build()
	}
	for _, row := range t.Rows {
		if v := row[i]; !v.IsNull() {
			b.AddTrigrams(d, v.Str())
		}
	}
	return b.Build()
}

// numericRange returns the [min, max] of vals (+Inf, -Inf when empty),
// accumulated with math.Min/Max in slice order — the same fold a
// pairwise scan performs, so combining two cached ranges reproduces the
// combined scan bit-for-bit.
func numericRange(vals []float64) [2]float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return [2]float64{lo, hi}
}

// numericColumn collects the column's parseable numeric values.
func numericColumn(t *relational.Table, attr string) []float64 {
	out := []float64{}
	i := t.AttrIndex(attr)
	if i < 0 {
		return out
	}
	for _, row := range t.Rows {
		if x, ok := row[i].Float(); ok {
			out = append(out, x)
		}
	}
	return out
}

// Target returns the schema the features were computed for.
func (tf *TargetFeatures) Target() *relational.Schema { return tf.tgt }

// Dict returns the frozen gram dictionary shared by every vector in the
// layer (and by any frozen classifiers compiled into the same ID
// space).
func (tf *TargetFeatures) Dict() *tokenize.Dict { return tf.dict }

// ColumnGrams returns the gram counts of every non-null value of string
// column attr of t — the column's n-gram vector — keyed by the layer's
// dictionary.
func (tf *TargetFeatures) ColumnGrams(t *relational.Table, attr string) *tokenize.IDVector {
	return tf.ngrams[colKey{t, attr}]
}

// Columns returns how many column feature vectors (n-gram and numeric)
// the layer holds — the size figure a serving layer reports per
// prepared catalog.
func (tf *TargetFeatures) Columns() int {
	if tf == nil {
		return 0
	}
	return len(tf.ngrams) + len(tf.numbers)
}

// Index returns the inverted gram-ID candidate index over the layer's
// string columns, or nil when the layer holds no string column.
func (tf *TargetFeatures) Index() *tokenize.Index {
	if tf == nil {
		return nil
	}
	return tf.index
}

// IndexStats snapshots the candidate index's size and retrieval
// counters (zero when the layer has no index).
func (tf *TargetFeatures) IndexStats() tokenize.IndexStats {
	if tf == nil {
		return tokenize.IndexStats{}
	}
	return tf.index.Stats()
}

// covers reports whether the layer can answer every target-side feature
// lookup of a Bind against tgt — the precondition for the
// column-parallel bind path, whose normalization pass must be read-only
// on the cache.
func (tf *TargetFeatures) covers(tgt *relational.Schema) bool {
	return tf != nil && tf.tgt == tgt
}
