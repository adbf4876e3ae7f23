package repository

import (
	"sort"
	"time"

	"ctxmatch/internal/match"
	"ctxmatch/internal/tokenize"
)

// globalKeys is a request's source tokenization keyed into the fused
// index's global ID space under one read-lock hold, together with the
// remap of every indexed entry captured in that same hold — all that
// projecting the source into any survivor's local ID space needs once
// the lock is released.
type globalKeys struct {
	// gids[j][k] is the global ID of gram k of source column j, NoID
	// when no installed catalog holds it.
	gids   [][]uint32
	remaps map[*Entry]tokenize.Remap
}

// project keys the request's source features into e's dictionary: by
// integer translation through the captured global IDs and e's remap
// when the fused pass keyed the request, by string lookups otherwise.
func (g *globalKeys) project(sf *match.SourceFeatures, e *Entry) *match.SourceProjection {
	d := e.feats.Dict()
	if g != nil {
		if r, ok := g.remaps[e]; ok {
			return sf.Project(d, func(j, k int) (uint32, bool) { return r.Local(g.gids[j][k]) })
		}
	}
	return sf.ProjectDict(d)
}

// fusedRetrieve is the registry-global retrieval pass: the source's
// distinct grams — tokenized once per request, outside the lock — are
// keyed into the fused index's global dictionary once, profiled once,
// and a single fused term-at-a-time pass accumulates every catalog's
// per-column WAND bound simultaneously. Catalogs are then visited in
// descending aggregate-bound order — the most promising catalogs
// establish the top-k floor first, so the floor is sharp for the long
// tail — and each catalog runs the same needed-floor column walk as the
// per-catalog path, except that a column whose fused bound falls below
// the walk's floor is skipped without building its vector or touching
// the catalog's postings: the bound already proves what the floored
// scan would have (best < floor).
//
// Every non-pruned catalog's evidence is exact and computed by the
// catalog's own index (LocalVector feeds it the same in-vocabulary
// (ID, count) pairs and norm the per-catalog rekeying produces), so
// the survivor set is the true top-k by evidence and each survivor's
// evidence is bit-identical to the per-catalog path's. Only the
// Pruned flags may differ from the name-order walk: the fused visit
// order prunes strictly under the same conservative bound, but with a
// floor that sharpens sooner.
//
// A non-zero deadline is the retrieval stage's budget: once it passes,
// every not-yet-scored indexed catalog is marked Skipped, exactly as in
// the per-catalog path.
//
// The returned keys carry the request's global IDs and every indexed
// entry's remap, so survivors' projections can be built after the lock
// is released (globalKeys.project).
//
// Must be called with the fleet's read lock held: the fused pass reads
// the unfrozen global dictionary and the slot table, which installs
// mutate under the write lock.
func (f *Fleet) fusedRetrieve(entries []*Entry, sf *match.SourceFeatures, k int, minScore float64, deadline time.Time) ([]CatalogScore, *globalKeys) {
	keys := &globalKeys{gids: make([][]uint32, len(sf.Cols)), remaps: map[*Entry]tokenize.Remap{}}
	for j, c := range sf.Cols {
		keys.gids[j] = f.fused.GlobalIDs(c.Grams)
	}
	// The source is profiled, and its bounds accumulated, on the first
	// indexed catalog: a fleet with none runs no fused pass.
	var cols []srcColumn
	var bounds [][]float64 // per column, per slot position
	n := len(sf.Cols)

	type cand struct {
		e   *Entry
		agg float64
	}
	var cands []cand
	scores := make([]CatalogScore, 0, len(entries))
	for _, e := range entries {
		if e.slot == nil {
			scores = append(scores, CatalogScore{Name: e.Name, Generation: e.Generation, Unindexed: true})
			continue
		}
		keys.remaps[e] = e.slot.Remap()
		if cols == nil {
			cols, bounds = profileColumns(sf), make([][]float64, n)
			for j := range cols {
				cols[j].global = tokenize.GlobalVector(keys.gids[j], cols[j].counts, cols[j].norm)
				bounds[j] = make([]float64, f.fused.Slots())
				f.fused.AccumulateBounds(cols[j].global, bounds[j])
			}
		}
		agg := 0.0
		if n > 0 {
			pos := e.slot.Pos()
			for j := range cols {
				agg += min(bounds[j][pos], 1)
			}
			agg /= float64(n)
		}
		cands = append(cands, cand{e: e, agg: agg})
	}
	// Highest aggregate bound first: these are the catalogs most likely
	// to own the final top-k, so scoring them first makes the advancing
	// floor maximally sharp for everything after. Ties by name keep the
	// walk deterministic.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].agg != cands[j].agg {
			return cands[i].agg > cands[j].agg
		}
		return cands[i].e.Name < cands[j].e.Name
	})

	floor := newTopK(k)
	var row []float64
	var scratch tokenize.LocalVectorScratch
	skips := 0
	for _, c := range cands {
		e := c.e
		cs := CatalogScore{Name: e.Name, Generation: e.Generation}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			cs.Skipped = true
			scores = append(scores, cs)
			continue
		}
		ix := e.slot.Index()
		pos := e.slot.Pos()
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
			fl := max(minScore, needed)
			if fl > 0 && bounds[j][pos] < fl {
				// The fused bound proves the column's true best is below
				// fl — exactly what a floored scan returning 0 proves —
				// without building the vector or walking any postings.
				skips++
				if needed > minScore {
					pruned = true
					break
				}
				// fl was minScore: the column's best is sub-threshold
				// and contributes exactly 0.
				continue
			}
			vec := e.slot.LocalVector(cols[j].global, &scratch)
			r := row[:ix.Columns()]
			ix.ScoreColumnsFloored(vec, r, fl)
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
			// The floored scan proved the column's true best is below fl.
			if needed > minScore {
				pruned = true
				break
			}
		}
		cs.Pruned = pruned
		if !pruned && n > 0 {
			cs.Evidence = sum / float64(n)
			floor.push(cs.Evidence)
		}
		scores = append(scores, cs)
	}
	f.fused.CountSkips(skips)

	sortCatalogScores(scores)
	return scores, keys
}
