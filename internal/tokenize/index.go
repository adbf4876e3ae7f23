package tokenize

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Posting is one entry of a gram's posting list: the dense index of a
// column containing the gram, and the gram's count in that column's
// vector.
type Posting struct {
	Col   uint32
	Count float64
}

// Index is an inverted candidate-generation index over a fixed set of
// ID-keyed column vectors: for every gram ID, the postings of the
// columns containing it, plus the per-list maximum normalized weight
// (max over postings of count/‖column‖) that upper-bounds any single
// column's contribution to a cosine — the max-score bound of WAND-style
// retrieval.
//
// The payoff is asymptotic: scoring one source vector against every
// indexed column costs O(matched postings) — only the (gram, column)
// pairs that actually intersect — instead of one merge walk per column,
// which pays O(|source| + |column|) even for columns sharing nothing.
// Scores are bit-for-bit identical to CosineIDs per pair: the
// term-at-a-time accumulation visits each column's matched grams in
// ascending gram-ID order, the exact summation order of the merge walk.
//
// An Index is immutable after BuildIndex and safe for concurrent use;
// the retrieval counters behind Stats are atomic.
type Index struct {
	cols  []*IDVector
	lists [][]Posting
	// maxW[g] = max over postings of lists[g] of Count/‖col‖: no column
	// can gain more than srcWeight·maxW[g] of normalized cosine from
	// gram g.
	maxW     []float64
	postings int

	// retrievals counts ScoreColumns calls, candidates the columns they
	// touched (shared ≥1 gram, or survived the floor), pairs the
	// (source column × indexed column) pairs those calls covered.
	retrievals atomic.Int64
	candidates atomic.Int64
	pairs      atomic.Int64
}

// BuildIndex constructs the inverted index over cols, whose vectors
// must all be keyed by IDs below nGrams (the owning dictionary's Len at
// build time). Postings within a list are in ascending column order, so
// the index is deterministic for a fixed input.
func BuildIndex(cols []*IDVector, nGrams int) *Index {
	ix := &Index{
		cols:  cols,
		lists: make([][]Posting, nGrams),
		maxW:  make([]float64, nGrams),
	}
	for ci, v := range cols {
		if v == nil {
			continue
		}
		norm := v.Norm()
		for i, id := range v.IDs {
			ix.lists[id] = append(ix.lists[id], Posting{Col: uint32(ci), Count: v.Counts[i]})
			ix.postings++
			if norm > 0 {
				if w := v.Counts[i] / norm; w > ix.maxW[id] {
					ix.maxW[id] = w
				}
			}
		}
	}
	return ix
}

// Columns returns how many column vectors the index covers.
func (ix *Index) Columns() int { return len(ix.cols) }

// Bytes estimates the memory pinned by the index structure itself
// (posting lists, bounds and headers), excluding the column vectors it
// references, which the feature layer already accounts for.
func (ix *Index) Bytes() int {
	n := ix.postings * int(unsafe.Sizeof(Posting{}))
	n += len(ix.lists) * int(unsafe.Sizeof([]Posting(nil)))
	n += len(ix.maxW) * 8
	n += len(ix.cols) * int(unsafe.Sizeof((*IDVector)(nil)))
	return n
}

// ScoreColumns computes the cosine of src against every indexed column
// into row (len(row) must be Columns()) and returns how many columns
// share at least one gram with src. Every entry is bit-for-bit equal to
// CosineIDs(src, column): columns sharing no gram score exactly 0, and
// for the rest the dot product accumulates per column in ascending
// gram-ID order — the merge walk's own summation order — before the
// same norm division.
//
// Source IDs outside the index's gram range (per-build overflow IDs of
// grams unknown to the frozen dictionary, or vocabulary interned after
// the index was built) cannot appear in any indexed column and are
// skipped; they still contribute to src's norm, exactly as in
// CosineIDs.
func (ix *Index) ScoreColumns(src *IDVector, row []float64) int {
	for i := range row {
		row[i] = 0
	}
	return ix.scoreColumnsCleared(src, row)
}

// ScoreColumnsFresh is ScoreColumns minus the initial clear, for rows
// the caller just allocated (and the runtime therefore already zeroed).
// Passing a dirty row produces garbage.
func (ix *Index) ScoreColumnsFresh(src *IDVector, row []float64) int {
	return ix.scoreColumnsCleared(src, row)
}

func (ix *Index) scoreColumnsCleared(src *IDVector, row []float64) int {
	if src.NNZ() == 0 {
		ix.count(0)
		return 0
	}
	for i, id := range src.IDs {
		if int(id) >= len(ix.lists) {
			// IDs are sorted ascending; everything after is out of range.
			break
		}
		c := src.Counts[i]
		for _, p := range ix.lists[id] {
			row[p.Col] += c * p.Count
		}
	}
	sn := src.Norm()
	candidates := 0
	for ci := range row {
		if row[ci] == 0 {
			continue
		}
		candidates++
		// The merge walk divides by (a.norm · b.norm) with the smaller
		// vector first; float multiplication is commutative bit-for-bit,
		// so the operand order here cannot diverge from it.
		row[ci] /= sn * ix.cols[ci].Norm()
	}
	ix.count(candidates)
	return candidates
}

// ScoreColumnsFloored is ScoreColumns with WAND-style max-score
// pruning: any column whose cosine upper bound provably falls below
// floor is skipped (its row entry is 0 without being scored), and the
// survivors fall back to the exact merge-walk CosineIDs. Pruning is
// conservative — a column with true cosine ≥ floor is always scored
// exactly — so callers that discard sub-floor scores anyway observe
// output identical to the exhaustive path.
//
// The bound: cos(src, col) ≤ Σ over shared grams g of
// (src_g/‖src‖)·maxW[g]. Source grams are split into essential and
// tail terms — the tail being the largest suffix (in ascending bound
// order) whose bounds sum below floor — and only essential posting
// lists are traversed: a column sharing nothing but tail grams is
// bounded below floor and cannot surface.
//
// A floor ≤ 0 degrades to ScoreColumns, which is both exact and
// cheaper than per-column merge walks.
func (ix *Index) ScoreColumnsFloored(src *IDVector, row []float64, floor float64) int {
	if floor <= 0 {
		return ix.ScoreColumns(src, row)
	}
	for i := range row {
		row[i] = 0
	}
	if src.NNZ() == 0 || src.Norm() == 0 {
		ix.count(0)
		return 0
	}
	sn := src.Norm()
	sc := flooredScratchPool.Get().(*flooredScratch)
	defer flooredScratchPool.Put(sc)
	bounds := sc.bounds[:0]
	var total float64
	for i, id := range src.IDs {
		b := 0.0
		if int(id) < len(ix.maxW) {
			b = src.Counts[i] / sn * ix.maxW[id]
		}
		bounds = append(bounds, b)
		total += b
	}
	sc.bounds = bounds
	if total < floor {
		// No column can reach the floor through any subset of src's
		// grams.
		ix.count(0)
		return 0
	}
	// Greedily move the smallest bounds into the tail while the tail's
	// bound sum stays below the floor: a column sharing only tail grams
	// is bounded by the tail sum and cannot reach the floor, so only
	// essential posting lists need traversing.
	if cap(sc.essential) < len(bounds) {
		sc.essential = make([]bool, len(bounds))
	}
	essential := sc.essential[:len(bounds)]
	for i := range essential {
		essential[i] = false
	}
	order := sortedBoundOrder(bounds, sc.order)
	sc.order = order
	tail := 0.0
	for _, i := range order { // ascending bound order
		if tail+bounds[i] < floor {
			tail += bounds[i]
			continue
		}
		essential[i] = true
	}
	// seen is kept all-false between calls: touched entries are reset
	// via cands before the scratch goes back to the pool.
	if cap(sc.seen) < len(ix.cols) {
		sc.seen = make([]bool, len(ix.cols))
	}
	seen := sc.seen[:len(ix.cols)]
	cands := sc.cands[:0]
	for i, id := range src.IDs {
		if !essential[i] || int(id) >= len(ix.lists) {
			continue
		}
		for _, p := range ix.lists[id] {
			if !seen[p.Col] {
				seen[p.Col] = true
				cands = append(cands, p.Col)
			}
		}
	}
	for _, ci := range cands {
		row[ci] = CosineIDs(src, ix.cols[ci])
		seen[ci] = false
	}
	sc.cands = cands
	ix.count(len(cands))
	return len(cands)
}

// flooredScratch holds the per-probe working set of ScoreColumnsFloored
// — bound values, their sort order, the essential marks and the
// candidate dedup — so steady-state floored probes allocate nothing.
// The seen slice is maintained all-false across uses.
type flooredScratch struct {
	bounds    []float64
	essential []bool
	order     []int
	seen      []bool
	cands     []uint32
}

var flooredScratchPool = sync.Pool{New: func() any { return &flooredScratch{} }}

// sortedBoundOrder returns the indices of bounds in ascending bound
// order (ties by index, for determinism), reusing buf's capacity.
// bounds has one entry per distinct source gram — thousands for a large
// column — so this must stay O(n log n).
func sortedBoundOrder(bounds []float64, buf []int) []int {
	order := buf[:0]
	for i := range bounds {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case bounds[a] < bounds[b]:
			return -1
		case bounds[a] > bounds[b]:
			return 1
		default:
			return a - b
		}
	})
	return order
}

func (ix *Index) count(candidates int) {
	ix.retrievals.Add(1)
	ix.candidates.Add(int64(candidates))
	ix.pairs.Add(int64(len(ix.cols)))
}

// IndexStats sizes an index and reports its lifetime retrieval
// effectiveness.
type IndexStats struct {
	// Columns and Grams size the indexed space; Postings counts the
	// stored (gram, column) pairs and Bytes estimates their memory.
	Columns, Grams, Postings, Bytes int
	// Retrievals counts ScoreColumns calls since the index was built;
	// CandidatePairs the column scores they actually computed, and
	// TotalPairs the (source × indexed column) pairs they covered. The
	// candidate hit rate CandidatePairs/TotalPairs is the fraction of
	// the exhaustive work the index could not prove away.
	Retrievals, CandidatePairs, TotalPairs int64
}

// HitRate returns CandidatePairs/TotalPairs in [0,1], or 0 before any
// retrieval.
func (s IndexStats) HitRate() float64 {
	if s.TotalPairs == 0 {
		return 0
	}
	r := float64(s.CandidatePairs) / float64(s.TotalPairs)
	return math.Min(r, 1)
}

// Stats snapshots the index's size and retrieval counters.
func (ix *Index) Stats() IndexStats {
	if ix == nil {
		return IndexStats{}
	}
	return IndexStats{
		Columns:        len(ix.cols),
		Grams:          len(ix.lists),
		Postings:       ix.postings,
		Bytes:          ix.Bytes(),
		Retrievals:     ix.retrievals.Load(),
		CandidatePairs: ix.candidates.Load(),
		TotalPairs:     ix.pairs.Load(),
	}
}
