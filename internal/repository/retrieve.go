package repository

import (
	"slices"
	"sort"
	"time"

	"ctxmatch/internal/match"
	"ctxmatch/internal/tokenize"
)

// srcColumn is one source string column profiled for retrieval: its
// gram counts, aligned with the request's tokenization of the column,
// and the Euclidean norm of those counts — which is the same under
// every ID mapping, so it is computed once.
type srcColumn struct {
	col    *match.SourceColumn
	counts []float64
	norm   float64
	// global is the column keyed into a fused index's global ID space,
	// set by the fused retrieval pass that owns the profile.
	global *tokenize.IDVector
}

// profileColumns profiles every featurized source column over all its
// values — the rule the catalogs' own index vectors were built under.
func profileColumns(sf *match.SourceFeatures) []srcColumn {
	out := make([]srcColumn, len(sf.Cols))
	for j, c := range sf.Cols {
		out[j].col = c
		out[j].counts, out[j].norm = c.Counts()
	}
	return out
}

// vector keys a source column profile into the entry's interned ID
// space: grams known to the catalog's dictionary take their dense ID,
// unknown grams take per-build overflow IDs past the dictionary — out
// of every posting list's range, so they can never intersect, but still
// part of the norm — exactly the convention the matching path uses for
// out-of-vocabulary grams.
func (e *Entry) vector(col *srcColumn) *tokenize.IDVector {
	d := e.feats.Dict()
	overflow := uint32(d.Len())
	keys := make([]uint64, 0, len(col.counts))
	for k, c := range col.counts {
		if c == 0 {
			continue
		}
		id, ok := d.Lookup(col.col.Grams[k])
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
			vec := e.vector(&cols[j])
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

// sortCatalogScores orders retrieval outcomes survivors-first
// (evidence desc, name asc), then pruned catalogs, then
// budget-skipped ones — the shared presentation order of both
// retrieval paths.
func sortCatalogScores(scores []CatalogScore) {
	sort.SliceStable(scores, func(i, j int) bool {
		a, b := scores[i], scores[j]
		if a.Skipped != b.Skipped {
			return !a.Skipped
		}
		if a.Pruned != b.Pruned {
			return !a.Pruned
		}
		if a.Evidence != b.Evidence {
			return a.Evidence > b.Evidence
		}
		return a.Name < b.Name
	})
}

// topK tracks the k best evidence values seen so far; kth reports the
// advancing floor — 0 until k catalogs have been scored.
type topK struct {
	k int
	v []float64 // descending, at most k values
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) push(x float64) {
	if t.k <= 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(t.v, x, func(a, b float64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	})
	t.v = slices.Insert(t.v, i, x)
	if len(t.v) > t.k {
		t.v = t.v[:t.k]
	}
}

func (t *topK) kth() float64 {
	if len(t.v) < t.k {
		return 0
	}
	return t.v[len(t.v)-1]
}
