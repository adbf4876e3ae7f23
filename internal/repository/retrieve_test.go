package repository

import (
	"time"

	"ctxmatch/internal/match"
	"ctxmatch/internal/tokenize"
)

// The per-catalog retrieval walk below is the oracle the fused pass is
// checked against: it scores every catalog through its own dictionary
// and index, with no global ID space and no bound pass.

// vector keys a source column profile, whose distinct grams are
// grams, into the entry's interned ID space: grams known to the
// catalog's dictionary take their dense ID, unknown grams take
// per-build overflow IDs past the dictionary — out of every posting
// list's range, so they can never intersect, but still part of the
// norm — exactly the convention the matching path uses for
// out-of-vocabulary grams.
func (e *Entry) vector(grams []string, col *srcColumn) *tokenize.IDVector {
	d := e.feats.Dict()
	overflow := uint32(d.Len())
	keys := make([]uint64, 0, len(col.counts))
	for k, c := range col.counts {
		if c == 0 {
			continue
		}
		id, ok := d.Lookup(grams[k])
		if !ok {
			id = overflow
			overflow++
		}
		keys = append(keys, uint64(id)<<32|uint64(k))
	}
	sorted := tokenize.SortByID(keys, make([]uint64, len(keys)))
	ids := make([]uint32, len(sorted))
	counts := make([]float64, len(sorted))
	for i, key := range sorted {
		ids[i] = uint32(key >> 32)
		counts[i] = col.counts[uint32(key)]
	}
	return tokenize.NewIDVector(ids, counts, col.norm)
}

// retrieve scores every entry's catalog against the source and returns
// the per-catalog outcomes ordered survivors-first (evidence desc, name
// asc), pruned catalogs last by name.
//
// The walk is deterministic — entries arrive in name order — and the
// top-k floor advances monotonically: once k catalogs have exact
// evidence, the k-th best so far floors every later catalog. Per source
// column j of n the walk derives the contribution the column must at
// least achieve for the catalog to still reach the floor even if all
// remaining columns scored a perfect 1 (`needed`), and passes
// max(minScore, needed) to ScoreColumnsFloored. The floored scan
// returns exact values at or above its floor, so a returned best ≥
// floor is the column's true best; a returned zero proves the true
// best is below the floor, which either contributes exactly 0 (floor
// was minScore — sub-threshold scores are discarded anyway) or proves
// the whole catalog cannot reach the k-th best evidence and is pruned.
// Either way every non-pruned catalog's evidence is exact, so the
// survivor set is the true top-k.
//
// A non-zero deadline is the retrieval stage's budget: once it passes,
// every not-yet-scored indexed catalog is marked Skipped (unindexed
// catalogs carry no scan and still pass through), so the caller can
// degrade instead of blowing the whole request deadline here.
func retrieve(entries []*Entry, sf *match.SourceFeatures, k int, minScore float64, deadline time.Time) []CatalogScore {
	cols := profileColumns(sf)
	n := len(cols)
	floor := newTopK(k)
	scores := make([]CatalogScore, 0, len(entries))
	var row []float64
	for _, e := range entries {
		cs := CatalogScore{Name: e.Name, Generation: e.Generation}
		ix := e.feats.Index()
		if ix == nil {
			cs.Unindexed = true
			scores = append(scores, cs)
			continue
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			cs.Skipped = true
			scores = append(scores, cs)
			continue
		}
		if cap(row) < ix.Columns() {
			row = make([]float64, ix.Columns())
		}
		var sum float64
		pruned := false
		for j := range cols {
			rem := float64(n - 1 - j)
			needed := floor.kth()*float64(n) - sum - rem
			if needed > 1 {
				// Even a perfect remaining scan cannot reach the floor.
				pruned = true
				break
			}
			f := max(minScore, needed)
			vec := e.vector(sf.Cols[j].Grams, &cols[j])
			r := row[:ix.Columns()]
			ix.ScoreColumnsFloored(vec, r, f)
			best := 0.0
			for _, x := range r {
				if x > best {
					best = x
				}
			}
			if best > 0 {
				sum += best
				continue
			}
			// The floored scan proved the column's true best is below f.
			if needed > minScore {
				pruned = true
				break
			}
			// f was minScore: the column's best is sub-threshold and
			// contributes exactly 0.
		}
		cs.Pruned = pruned
		if !pruned && n > 0 {
			cs.Evidence = sum / float64(n)
			floor.push(cs.Evidence)
		}
		scores = append(scores, cs)
	}

	sortCatalogScores(scores)
	return scores
}
