package match

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// sourceTokenizations counts source string columns tokenized into
// per-row gram sequences — once per column by FeaturizeSource, and once
// per column per bind when an indexed bind has no projection to
// compile its segments from — so tests and benchmarks can assert that
// a request tokenizes each source column once, however many catalogs
// it is matched against.
var sourceTokenizations atomic.Int64

// SourceTokenizations returns how many source string columns have been
// tokenized into per-row gram sequences in this process.
func SourceTokenizations() int64 { return sourceTokenizations.Load() }

// SourceColumn is one source string column tokenized once per request:
// its distinct trigrams in first-occurrence order (rows in order, NULLs
// skipped, each value's grams in TrigramSeq order) and every row's
// gram sequence as indices into them. It is catalog-independent;
// SourceFeatures.Project keys it into any catalog's ID space by looking
// each distinct gram up once.
type SourceColumn struct {
	Grams []string
	// rows[ri] is row ri's gram sequence: nil for a NULL value,
	// non-nil (possibly empty) otherwise.
	rows [][]int32
}

// Counts returns the column's gram counts over every non-NULL row,
// aligned with Grams, and their Euclidean norm. Counts are integers, so
// the norm's sum of squares is exact and independent of the order grams
// are visited in.
func (c *SourceColumn) Counts() ([]float64, float64) {
	counts := make([]float64, len(c.Grams))
	for _, row := range c.rows {
		for _, k := range row { // nil for a NULL value
			counts[k]++
		}
	}
	var norm2 float64
	for _, x := range counts {
		norm2 += x * x
	}
	return counts, math.Sqrt(norm2)
}

// SourceFeatures is every string-domain column of one source schema,
// in schema order, tokenized once per request. Retrieval profiles,
// each catalog's per-row segments and the target-classifier tagger all
// read projections of this one tokenization instead of re-tokenizing
// the source per catalog and per use. Immutable once built.
type SourceFeatures struct {
	src   *relational.Schema
	Cols  []*SourceColumn
	index map[colKey]int
}

// FeaturizeSource tokenizes every string-domain column of src, fanning
// columns across up to workers goroutines.
func FeaturizeSource(src *relational.Schema, workers int) *SourceFeatures {
	sf := &SourceFeatures{src: src, index: map[colKey]int{}}
	type job struct {
		t  *relational.Table
		ai int
	}
	var jobs []job
	for _, t := range src.Tables {
		for ai, a := range t.Attrs {
			if a.Type.Domain() == relational.DomainString {
				sf.index[colKey{t, a.Name}] = len(jobs)
				jobs = append(jobs, job{t, ai})
			}
		}
	}
	sf.Cols = make([]*SourceColumn, len(jobs))
	ForEachIndex(len(jobs), workers, func(j int) { sf.Cols[j] = tokenizeColumn(jobs[j].t, jobs[j].ai) })
	return sf
}

// tokenizeScratch is tokenizeColumn's working storage, pooled across
// requests: the gram index and the growing gram and row buffers, whose
// contents are copied out at their final sizes.
type tokenizeScratch struct {
	index map[string]int32
	grams []string
	flat  []int32
}

var tokenizeScratchPool = sync.Pool{New: func() any { return &tokenizeScratch{index: map[string]int32{}} }}

// tokenizeColumn builds the gram table of t's attribute at position
// ai. Row sequences share one backing array.
func tokenizeColumn(t *relational.Table, ai int) *SourceColumn {
	sourceTokenizations.Add(1)
	s := tokenizeScratchPool.Get().(*tokenizeScratch)
	starts := make([]int32, len(t.Rows))
	for ri, row := range t.Rows {
		v := row[ai]
		if v.IsNull() {
			starts[ri] = -1
			continue
		}
		starts[ri] = int32(len(s.flat))
		for g := range tokenize.TrigramSeq(v.Str()) {
			k, ok := s.index[g]
			if !ok {
				k = int32(len(s.grams))
				s.index[g] = k
				s.grams = append(s.grams, g)
			}
			s.flat = append(s.flat, k)
		}
	}
	c := &SourceColumn{Grams: slices.Clone(s.grams), rows: make([][]int32, len(t.Rows))}
	flat := append(make([]int32, 0, len(s.flat)), s.flat...)
	end := len(flat)
	for ri := len(t.Rows) - 1; ri >= 0; ri-- {
		if st := int(starts[ri]); st >= 0 {
			c.rows[ri] = flat[st:end:end]
			end = st
		}
	}
	clear(s.index)
	clear(s.grams)
	s.grams, s.flat = s.grams[:0], s.flat[:0]
	tokenizeScratchPool.Put(s)
	return c
}

// SourceProjection is a SourceFeatures keyed into one catalog
// dictionary's ID space: every distinct gram of every column carries
// its dictionary ID, and grams the dictionary lacks carry
// out-of-vocabulary IDs numbered from the dictionary's end in
// first-occurrence order — exactly the numbering a re-tokenizing
// segment compilation assigns. Immutable; safe for concurrent readers.
type SourceProjection struct {
	sf   *SourceFeatures
	dict *tokenize.Dict
	// ids[j][k] is the ID of gram k of column j.
	ids [][]uint32
}

// Project keys sf into d's ID space. lookup reports the d-ID of gram k
// of column j, false when d lacks the gram; it is how a caller that has
// already keyed the grams elsewhere (a fused index's global IDs plus a
// catalog remap) avoids looking the strings up again.
func (sf *SourceFeatures) Project(d *tokenize.Dict, lookup func(j, k int) (uint32, bool)) *SourceProjection {
	p := &SourceProjection{sf: sf, dict: d, ids: make([][]uint32, len(sf.Cols))}
	for j, c := range sf.Cols {
		p.ids[j] = columnIDs(c, d, func(k int) (uint32, bool) { return lookup(j, k) })
	}
	return p
}

// columnIDs numbers column c's grams in d's ID space: lookup(k) gives
// gram k's d-ID, and grams d lacks take IDs from d.Len() on, in
// first-occurrence order.
func columnIDs(c *SourceColumn, d *tokenize.Dict, lookup func(k int) (uint32, bool)) []uint32 {
	ids := make([]uint32, len(c.Grams))
	oov := uint32(d.Len())
	for k := range ids {
		id, ok := lookup(k)
		if !ok {
			id = oov
			oov++
		}
		ids[k] = id
	}
	return ids
}

// ProjectDict keys sf into d's ID space through d's own lookup.
func (sf *SourceFeatures) ProjectDict(d *tokenize.Dict) *SourceProjection {
	return sf.Project(d, func(j, k int) (uint32, bool) { return d.Lookup(sf.Cols[j].Grams[k]) })
}

// Dict returns the dictionary the projection is keyed in.
func (p *SourceProjection) Dict() *tokenize.Dict { return p.dict }

// Source returns the schema the projected features were extracted from.
func (p *SourceProjection) Source() *relational.Schema { return p.sf.src }

// ProjectedColumn is one column of a projection: each row's grams as
// catalog IDs.
type ProjectedColumn struct {
	rows [][]int32
	ids  []uint32
}

// Column returns the projected column t.attr; false when the column
// was not featurized (t is not a table of the source, or attr is not a
// string column of it).
func (p *SourceProjection) Column(t *relational.Table, attr string) (ProjectedColumn, bool) {
	j, ok := p.sf.index[colKey{t, attr}]
	if !ok {
		return ProjectedColumn{}, false
	}
	return ProjectedColumn{rows: p.sf.Cols[j].rows, ids: p.ids[j]}, true
}

// Row returns row ri's gram IDs in TrigramSeq order, appended to
// buf[:0]; false for a NULL row.
func (pc ProjectedColumn) Row(ri int, buf []uint32) ([]uint32, bool) {
	row := pc.rows[ri]
	if row == nil {
		return buf[:0], false
	}
	buf = buf[:0]
	for _, k := range row {
		buf = append(buf, pc.ids[k])
	}
	return buf, true
}

// segments compiles column t.attr's per-row slot encoding from the
// projection; nil when the column is not projected.
func (p *SourceProjection) segments(t *relational.Table, attr string) *colSegments {
	j, ok := p.sf.index[colKey{t, attr}]
	if !ok {
		return nil
	}
	return columnSegments(p.sf.Cols[j], p.ids[j], p.dict)
}

// columnSegments slot-encodes a tokenized column whose grams carry
// the IDs ids in d's space (see columnIDs) — colSegments without
// touching a string. Known IDs are ordered with tokenize.SortByID;
// out-of-vocabulary IDs were numbered in first-occurrence order, which
// is already ascending and above every known ID.
func columnSegments(col *SourceColumn, ids []uint32, d *tokenize.Dict) *colSegments {
	base := uint32(d.Len())
	keys := make([]uint64, 0, len(ids))
	for k, id := range ids {
		if id < base {
			keys = append(keys, uint64(id)<<32|uint64(k))
		}
	}
	known := tokenize.SortByID(keys, make([]uint64, len(keys)))
	segs := &colSegments{ids: make([]uint32, 0, len(ids)), firstOOV: len(known), rows: make([][]int32, len(col.rows))}
	slot := make([]int32, len(ids))
	for _, key := range known {
		slot[uint32(key)] = int32(len(segs.ids))
		segs.ids = append(segs.ids, uint32(key>>32))
	}
	for k, id := range ids {
		if id >= base {
			slot[k] = int32(len(segs.ids))
			segs.ids = append(segs.ids, id)
		}
	}
	total := 0
	for _, row := range col.rows {
		total += len(row)
	}
	flat := make([]int32, total)
	for ri, row := range col.rows {
		if row == nil {
			continue
		}
		out := flat[:len(row):len(row)]
		flat = flat[len(row):]
		for i, k := range row {
			out[i] = slot[k]
		}
		segs.rows[ri] = out
	}
	return segs
}
