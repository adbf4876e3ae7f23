package repository

import (
	"slices"
	"sort"
	"time"

	"ctxmatch/internal/match"
	"ctxmatch/internal/tokenize"
)

// globalKeys is a request's source tokenization keyed into the global
// ID space of one published fused index version, together with that
// version — all that projecting the source into the local ID space of
// any of its catalogs needs, however many versions are published
// meanwhile.
type globalKeys struct {
	// gids[j][k] is the global ID of gram k of source column j, NoID
	// when no installed catalog holds it.
	gids  [][]uint32
	fused *tokenize.FusedIndex
}

// project keys the request's source features into the dictionary of
// e, an entry published with the keys' version: by integer translation
// through the global IDs and e's slot when it has one, by string
// lookups otherwise.
func (g *globalKeys) project(sf *match.SourceFeatures, e *Entry) *match.SourceProjection {
	if s := g.fused.Slot(e.pos); s != nil {
		return sf.Project(e.feats.Dict(), func(j, k int) (uint32, bool) { return s.Local(g.gids[j][k]) })
	}
	return sf.ProjectDict(e.feats.Dict())
}

// fusedRetrieve is the registry-global retrieval pass over one
// published state: the source's distinct grams — tokenized once per
// request — are keyed into the fused index's global dictionary once,
// profiled once, and one bound pass per source column computes every
// catalog's WAND bound for it. Catalogs are then visited in descending
// aggregate-bound order — the most promising catalogs establish the
// top-k floor first, so the floor is sharp for the long tail — and
// each catalog runs the needed-floor column walk of the per-catalog
// oracle (retrieve, in the tests), except that a column whose bound
// falls below the walk's floor is skipped without building its vector
// or touching the catalog's postings: the bound already proves what
// the floored scan would have (best < floor).
//
// Every non-pruned catalog's evidence is exact and computed by the
// catalog's own index (LocalVector feeds it the same in-vocabulary
// (ID, count) pairs and norm the per-catalog rekeying produces), so
// the survivor set is the true top-k by evidence and each survivor's
// evidence is bit-identical to the oracle's. Only the Pruned flags may
// differ from the oracle's name-order walk: the bound order prunes
// strictly under the same conservative bound, but with a floor that
// sharpens sooner.
//
// A non-zero deadline is the retrieval stage's budget: once it passes,
// every not-yet-scored indexed catalog is marked Skipped (unindexed
// catalogs carry no scan and still pass through), so the caller can
// degrade instead of blowing the whole request deadline here.
//
// The returned keys carry the request's global IDs and the version, so
// survivors' projections can be built from them (globalKeys.project).
func (f *Fleet) fusedRetrieve(st *fleetState, sf *match.SourceFeatures, k int, minScore float64, deadline time.Time) ([]CatalogScore, *globalKeys) {
	keys := &globalKeys{gids: make([][]uint32, len(sf.Cols)), fused: st.fused}
	for j, c := range sf.Cols {
		keys.gids[j] = st.fused.GlobalIDs(c.Grams)
	}
	// The source is profiled, and its bounds computed, on the first
	// indexed catalog: a fleet with none runs no bound pass.
	var cols []srcColumn
	var bounds [][]float64 // per column, per slot position
	n := len(sf.Cols)

	type cand struct {
		e    *Entry
		slot *tokenize.FusedSlot
		agg  float64
	}
	var cands []cand
	scores := make([]CatalogScore, 0, len(st.entries))
	for _, e := range st.entries {
		slot := st.fused.Slot(e.pos)
		if slot == nil {
			scores = append(scores, CatalogScore{Name: e.Name, Generation: e.Generation, Unindexed: true})
			continue
		}
		if cols == nil {
			cols, bounds = profileColumns(sf), make([][]float64, n)
			for j := range cols {
				cols[j].global = tokenize.GlobalVector(keys.gids[j], cols[j].counts, cols[j].norm)
				bounds[j] = make([]float64, st.fused.Slots())
				st.fused.Bounds(cols[j].global, bounds[j])
			}
			f.probes.Add(int64(n))
		}
		agg := 0.0
		if n > 0 {
			for j := range cols {
				agg += min(bounds[j][e.pos], 1)
			}
			agg /= float64(n)
		}
		cands = append(cands, cand{e: e, slot: slot, agg: agg})
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
		ix := c.slot.Index()
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
			if fl > 0 && bounds[j][e.pos] < fl {
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
			vec := c.slot.LocalVector(cols[j].global, &scratch)
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
	f.boundSkips.Add(int64(skips))

	sortCatalogScores(scores)
	return scores, keys
}

// srcColumn is one source string column profiled for retrieval: its
// gram counts, aligned with the request's tokenization of the column,
// and the Euclidean norm of those counts — which is the same under
// every ID mapping, so it is computed once.
type srcColumn struct {
	counts []float64
	norm   float64
	// global is the column keyed into a fused index version's global ID
	// space, set by the fused retrieval pass that owns the profile.
	global *tokenize.IDVector
}

// profileColumns profiles every featurized source column over all its
// values — the rule the catalogs' own index vectors were built under.
func profileColumns(sf *match.SourceFeatures) []srcColumn {
	out := make([]srcColumn, len(sf.Cols))
	for j, c := range sf.Cols {
		out[j].counts, out[j].norm = c.Counts()
	}
	return out
}

// sortCatalogScores orders retrieval outcomes survivors-first
// (evidence desc, name asc), then pruned catalogs, then
// budget-skipped ones — the presentation order of the fused pass and
// of its per-catalog oracle.
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
