package match

import (
	"sync"
	"sync/atomic"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// targetUpdates counts delta rebuilds (UpdateTargetFeatures over a
// previous layer) process-wide, so tests can assert that an update went
// through the splice path — and performed no build from nothing:
// TargetPrecomputes stays flat across an update.
var targetUpdates atomic.Int64

// TargetUpdates returns how many times a target feature layer has been
// delta-rebuilt in this process.
func TargetUpdates() int64 { return targetUpdates.Load() }

// UpdateTargetFeatures is the one build path of a target feature layer.
// It interns the layer's grams into d, which must still be building;
// the caller freezes it once the layer is built.
//
// With a nil old layer every column of updated is scanned — a fresh
// prepare, counted by TargetPrecomputes; touched is not consulted.
// With an old layer only the columns of tables for which touched
// reports true rescan, counted by TargetUpdates. Untouched columns
// never rescan rows: their gram vectors are replayed into d through
// the recorded per-column merge order, so the dictionary's ID
// assignment — and therefore every vector, name vector and the rebuilt
// candidate index — is bit-identical to a build from nothing over
// updated. old may be a layer this function built or one restored from
// a snapshot, which carries the merge orders; untouched tables in
// updated must be the same *Table pointers old was built over.
//
// Rescanned columns fan across up to workers goroutines: each column's
// grams are interned into a column-local dictionary, and the locals
// merge into d sequentially in schema order, so the layer is
// bit-identical at any worker count. Attribute-name vectors intern
// after every column (the canonical order all worker counts share), and
// the candidate index builds last, over the final vectors, whenever the
// schema has a string column.
func UpdateTargetFeatures(old *TargetFeatures, updated *relational.Schema, d *tokenize.Dict, touched func(*relational.Table) bool, workers int) *TargetFeatures {
	if old == nil {
		targetPrecomputes.Add(1)
	} else {
		targetUpdates.Add(1)
	}
	tf := &TargetFeatures{
		tgt:       updated,
		dict:      d,
		ngrams:    map[colKey]*tokenize.IDVector{},
		numbers:   map[colKey][]float64{},
		numRanges: map[colKey][2]float64{},
		names:     map[string]*tokenize.IDVector{},
		colOrder:  map[colKey][]uint32{},
	}
	if updated == nil {
		return tf
	}
	type job struct {
		t      *relational.Table
		attr   string
		domain relational.Domain
		fresh  bool
	}
	var jobs []job
	for _, tt := range updated.Tables {
		fresh := old == nil || touched(tt)
		for _, a := range tt.Attrs {
			if dom := a.Type.Domain(); dom == relational.DomainString || dom == relational.DomainNumber {
				jobs = append(jobs, job{tt, a.Name, dom, fresh})
			}
		}
	}
	type slot struct {
		local *tokenize.Dict
		vec   *tokenize.IDVector
		nums  []float64
	}
	slots := make([]slot, len(jobs))
	var builders sync.Pool
	builders.New = func() any { return tokenize.NewVectorBuilder() }
	ForEachIndex(len(jobs), workers, func(i int) {
		j := jobs[i]
		if !j.fresh {
			return
		}
		b := builders.Get().(*tokenize.VectorBuilder)
		defer builders.Put(b)
		switch j.domain {
		case relational.DomainString:
			ld := tokenize.NewDict()
			slots[i] = slot{local: ld, vec: buildColumnVector(b, ld, j.t, j.attr)}
		case relational.DomainNumber:
			slots[i] = slot{nums: numericColumn(j.t, j.attr)}
		}
	})
	// remapOld lazily translates old shared IDs to fresh ones as the
	// replay walks each untouched column's recorded merge order; entries
	// never reached stay NoID and are never consulted, because a
	// column's vector references exactly the grams its order lists.
	var remapOld []uint32
	if old != nil {
		remapOld = make([]uint32, old.dict.Len())
		for i := range remapOld {
			remapOld[i] = tokenize.NoID
		}
	}
	for i, j := range jobs {
		key := colKey{j.t, j.attr}
		switch j.domain {
		case relational.DomainString:
			if j.fresh {
				remap := slots[i].local.MergeInto(d)
				tf.ngrams[key] = tokenize.Remapped(slots[i].vec, remap)
				tf.colOrder[key] = remap
			} else {
				order := old.colOrder[key]
				norder := make([]uint32, len(order))
				for oi, oldID := range order {
					nid := remapOld[oldID]
					if nid == tokenize.NoID {
						nid = d.Intern(old.dict.Gram(oldID))
						remapOld[oldID] = nid
					}
					norder[oi] = nid
				}
				tf.ngrams[key] = tokenize.Remapped(old.ngrams[key], remapOld)
				tf.colOrder[key] = norder
			}
			tf.strCols = append(tf.strCols, key)
		case relational.DomainNumber:
			if j.fresh {
				tf.numbers[key] = slots[i].nums
				tf.numRanges[key] = numericRange(slots[i].nums)
			} else {
				tf.numbers[key] = old.numbers[key]
				tf.numRanges[key] = old.numRanges[key]
			}
		}
	}
	b := tokenize.NewVectorBuilder()
	for _, tt := range updated.Tables {
		for _, a := range tt.Attrs {
			if _, ok := tf.names[a.Name]; !ok {
				b.AddTrigrams(d, a.Name)
				tf.names[a.Name] = b.Build()
			}
		}
	}
	if len(tf.strCols) > 0 {
		cols := make([]*tokenize.IDVector, len(tf.strCols))
		tf.colDense = make(map[colKey]int, len(tf.strCols))
		for i, key := range tf.strCols {
			cols[i] = tf.ngrams[key]
			tf.colDense[key] = i
		}
		tf.index = tokenize.BuildIndex(cols, d.Len())
	}
	return tf
}
