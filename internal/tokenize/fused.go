package tokenize

import (
	"sync/atomic"
	"unsafe"
)

// FusedIndex is the registry-global retrieval index: one shared gram
// dictionary spanning every installed catalog plus, per global gram ID,
// a run of (catalog slot, max normalized weight) entries — the
// catalog-tagged fusion of the per-catalog inverted indexes. A source
// column is tokenized and keyed into the global ID space exactly once;
// a single term-at-a-time pass over the fused runs then accumulates a
// WAND-style cosine upper bound for every catalog simultaneously, so
// whole catalogs can be skipped without ever touching their private
// postings, and the exact floored scan runs only where the fused bound
// clears the caller's floor.
//
// The fused layer never scores exactly — exact scoring still goes
// through each catalog's own Index, fed a vector translated from the
// global ID space through the slot's inverse remap (see
// FusedSlot.LocalVector), which keeps every exact score bit-identical
// to the per-catalog path.
//
// Installation interns the catalog's dictionary into the global one via
// Dict.MergeInto (deterministic merge provenance: installing the same
// catalogs in the same order always reproduces the same global IDs).
// Removal tombstones the slot — its runs stay in place but are skipped
// — and once tombstones reach the deterministic compaction threshold
// the whole structure is rebuilt from the live slots in slot order,
// which is bit-identical to a from-scratch build over the same live
// set (fresh dictionary included).
//
// A FusedIndex is NOT internally synchronized: Install, Remove and the
// retrieval methods (GlobalIDs, AccumulateBounds, LocalVector, Remap)
// must be serialized by the owner — in practice the fleet's RWMutex,
// writes under the write lock, retrieval under the read lock. The
// global dictionary stays unfrozen (installs keep interning), which is
// why retrieval-time lookups need the read lock.
type FusedIndex struct {
	global *Dict
	slots  []*FusedSlot
	lists  [][]FusedRun
	runs   int
	tombs  int
	// threshold is the tombstone count that triggers compaction (see
	// NewFusedIndex).
	threshold int

	// fusedProbes counts AccumulateBounds calls; boundSkips counts
	// catalog-columns a caller reported as skipped on the fused bound
	// alone (see CountSkips).
	fusedProbes atomic.Int64
	boundSkips  atomic.Int64
}

// FusedRun is one catalog's entry in a global gram's fused run: the
// catalog's slot position and the gram's maximum normalized weight in
// that catalog (max over its columns of count/‖column‖) — the same
// per-gram bound the catalog's own ScoreColumnsFloored uses.
type FusedRun struct {
	Slot uint32
	MaxW float64
}

// FusedSlot is one installed catalog's handle into the fused index.
// pos and inv are rewritten by compaction; everything else is fixed at
// install. The handle stays valid across compactions — only Remove
// retires it.
type FusedSlot struct {
	ix   *Index
	dict *Dict
	// inv translates global gram IDs to this catalog's local IDs,
	// shifted by one so 0 means "not in this catalog". Global IDs
	// past len(inv) were interned after this slot's (re)install and
	// therefore cannot belong to it. Compaction installs a fresh
	// slice instead of rewriting this one, which is what lets Remap
	// hand it out past the owner's lock.
	inv  []int32
	pos  int
	dead bool
}

// DefaultCompactThreshold is the tombstone count at which a FusedIndex
// rebuilds itself when NewFusedIndex is given no explicit threshold.
const DefaultCompactThreshold = 4

// NewFusedIndex returns an empty fused index that compacts once
// tombstoned slots reach threshold (≤ 0 selects
// DefaultCompactThreshold). Independent of the threshold, the index
// also compacts whenever at least half its slots are tombstones, so
// retrieval never walks a mostly-dead slot table.
func NewFusedIndex(threshold int) *FusedIndex {
	if threshold <= 0 {
		threshold = DefaultCompactThreshold
	}
	return &FusedIndex{global: NewDict(), threshold: threshold}
}

// Install fuses one catalog — its frozen dictionary and inverted index
// — into the global structure and returns its slot handle. dict and ix
// must be immutable for the life of the slot (they are: prepared
// handles freeze both).
func (f *FusedIndex) Install(dict *Dict, ix *Index) *FusedSlot {
	s := &FusedSlot{ix: ix, dict: dict}
	f.install(s)
	f.slots = append(f.slots, s)
	return s
}

// install wires s into the fused structure at the next slot position.
// Shared by Install and the compaction rebuild, which is what makes
// compaction bit-identical to a fresh build over the live slots.
func (f *FusedIndex) install(s *FusedSlot) {
	remap := s.dict.MergeInto(f.global)
	for len(f.lists) < f.global.Len() {
		f.lists = append(f.lists, nil)
	}
	inv := make([]int32, f.global.Len())
	for local, gid := range remap {
		inv[gid] = int32(local) + 1
	}
	s.inv = inv
	s.pos = len(f.slots)
	s.dead = false
	pos := uint32(s.pos)
	for local, w := range s.ix.maxW {
		if len(s.ix.lists[local]) == 0 {
			continue
		}
		gid := remap[local]
		f.lists[gid] = append(f.lists[gid], FusedRun{Slot: pos, MaxW: w})
		f.runs++
	}
}

// Remove tombstones the slot: its runs are skipped from now on, and
// the index compacts once tombstones reach the threshold. Removing an
// already-dead slot is a no-op.
func (f *FusedIndex) Remove(s *FusedSlot) {
	if s == nil || s.dead {
		return
	}
	s.dead = true
	f.tombs++
	if f.tombs >= f.threshold || 2*f.tombs >= len(f.slots) {
		f.Compact()
	}
}

// Compact rebuilds the fused index from its live slots in slot order:
// a fresh global dictionary, fresh runs, fresh inverse remaps. The
// result is bit-identical to a FusedIndex freshly built by installing
// the same live catalogs in the same order — dead catalogs leave no
// trace, not even their interned grams. Slot handles survive with
// updated positions.
func (f *FusedIndex) Compact() {
	live := make([]*FusedSlot, 0, len(f.slots)-f.tombs)
	for _, s := range f.slots {
		if !s.dead {
			live = append(live, s)
		}
	}
	f.global = NewDict()
	f.lists = nil
	f.runs = 0
	f.tombs = 0
	f.slots = f.slots[:0]
	for _, s := range live {
		f.install(s)
		f.slots = append(f.slots, s)
	}
}

// Slots returns the current slot-table length, dead slots included —
// the required length of an AccumulateBounds bounds slice.
func (f *FusedIndex) Slots() int { return len(f.slots) }

// Live returns how many installed catalogs are not tombstoned.
func (f *FusedIndex) Live() int { return len(f.slots) - f.tombs }

// Dict returns the global dictionary. Callers may Lookup under the
// owner's read lock; they must not Intern.
func (f *FusedIndex) Dict() *Dict { return f.global }

// Pos returns the slot's current position — the index of its entries
// in an AccumulateBounds bounds slice. Stable except across Compact,
// which the owner serializes against retrieval.
func (s *FusedSlot) Pos() int { return s.pos }

// Index returns the catalog's own inverted index, which exact scans
// run against.
func (s *FusedSlot) Index() *Index { return s.ix }

// Remap snapshots the slot's global→local ID translation for use after
// the owner's read lock is released. It translates exactly the global
// IDs obtained under the same lock hold (GlobalIDs): a later
// compaction renumbers the global space but leaves this snapshot
// intact. The caller holds the read lock.
func (s *FusedSlot) Remap() Remap { return Remap{inv: s.inv} }

// Remap is an immutable global→local ID translation of one catalog;
// see FusedSlot.Remap.
type Remap struct{ inv []int32 }

// Local returns the catalog-local ID of global gram gid, or false when
// the catalog lacks the gram (NoID included).
func (r Remap) Local(gid uint32) (uint32, bool) {
	if int(gid) < len(r.inv) {
		if l := r.inv[gid]; l > 0 {
			return uint32(l - 1), true
		}
	}
	return 0, false
}

// AccumulateBounds makes the single fused term-at-a-time pass for one
// source column: for every live slot p, bounds[p] accumulates
// Σ over src grams g of (src_g/‖src‖)·maxW_p[g] — the WAND max-score
// cosine bound of the column against catalog p — in ascending global
// gram ID order. src must be keyed in the global ID space (see
// GlobalVector); IDs outside the fused gram range contribute nothing,
// exactly like out-of-vocabulary grams in the per-catalog bound.
// bounds must have length Slots() and arrive zeroed for the slots the
// caller will read.
func (f *FusedIndex) AccumulateBounds(src *IDVector, bounds []float64) {
	f.fusedProbes.Add(1)
	sn := src.Norm()
	if sn == 0 {
		return
	}
	for i, gid := range src.IDs {
		if int(gid) >= len(f.lists) {
			// IDs are sorted ascending; everything after is out of range.
			break
		}
		w := src.Counts[i] / sn
		for _, run := range f.lists[gid] {
			bounds[run.Slot] += w * run.MaxW
		}
	}
}

// CountSkips records catalog-columns whose exact scan a caller skipped
// on the fused bound alone; it only feeds Stats.
func (f *FusedIndex) CountSkips(n int) { f.boundSkips.Add(int64(n)) }

// LocalVector translates a global-ID source vector into the slot's
// local ID space: grams the catalog knows take their local dense ID,
// the rest take per-call overflow IDs from the catalog dictionary's
// end — outside every posting list's range, so they can never
// intersect, but still part of the norm. The result scores
// bit-identically to the per-catalog rekeying of the same gram counts:
// the in-vocabulary (ID, count) pairs are equal and in ascending ID
// order — the order every exact score sums in — and overflow IDs,
// whose assignment order is the only difference, never intersect an
// indexed column and carry no per-gram bound, so neither exact cosines
// nor floored-scan decisions can observe them. Local IDs do not follow
// global order, so the known pairs are re-sorted with SortByID, an
// O(n) radix sort over IDs below the catalog's dictionary size.
// scratch provides the working storage (grown as needed) so
// steady-state probes allocate only the returned slices.
func (s *FusedSlot) LocalVector(src *IDVector, scratch *LocalVectorScratch) *IDVector {
	n := src.NNZ()
	if n == 0 {
		return src
	}
	keys := scratch.keys[:0]
	overflow := scratch.overflow[:0]
	r := s.Remap()
	for i, gid := range src.IDs {
		if l, ok := r.Local(gid); ok {
			keys = append(keys, uint64(l)<<32|uint64(i))
			continue
		}
		overflow = append(overflow, src.Counts[i])
	}
	if cap(scratch.tmp) < len(keys) {
		scratch.tmp = make([]uint64, len(keys))
	}
	sorted := SortByID(keys, scratch.tmp[:len(keys)])
	ids := make([]uint32, 0, n)
	counts := make([]float64, 0, n)
	for _, k := range sorted {
		ids = append(ids, uint32(k>>32))
		counts = append(counts, src.Counts[uint32(k)])
	}
	base := uint32(s.dict.Len())
	for k, c := range overflow {
		ids = append(ids, base+uint32(k))
		counts = append(counts, c)
	}
	scratch.keys = keys
	scratch.overflow = overflow
	return NewIDVector(ids, counts, src.Norm())
}

// LocalVectorScratch recycles LocalVector's working storage across
// probes.
type LocalVectorScratch struct {
	keys, tmp []uint64
	overflow  []float64
}

// FusedStats sizes the fused index and reports its lifetime bound-pass
// effectiveness.
type FusedStats struct {
	// Slots counts the slot table (tombstones included), Live the
	// installed catalogs, Tombstones the dead slots awaiting
	// compaction.
	Slots, Live, Tombstones int
	// Grams is the global dictionary size; Runs the fused (gram,
	// catalog) run entries; Bytes estimates the fused structure's
	// memory, inverse remaps included.
	Grams, Runs, Bytes int
	// Probes counts fused bound passes (one per source column per
	// retrieval); BoundSkips the catalog-columns whose exact scan the
	// fused bound alone proved unnecessary.
	Probes, BoundSkips int64
}

// Stats snapshots the fused index's size and counters.
func (f *FusedIndex) Stats() FusedStats {
	if f == nil {
		return FusedStats{}
	}
	b := f.runs * int(unsafe.Sizeof(FusedRun{}))
	b += len(f.lists) * int(unsafe.Sizeof([]FusedRun(nil)))
	b += f.global.Bytes()
	for _, s := range f.slots {
		b += len(s.inv) * 4
	}
	return FusedStats{
		Slots:      len(f.slots),
		Live:       f.Live(),
		Tombstones: f.tombs,
		Grams:      f.global.Len(),
		Runs:       f.runs,
		Bytes:      b,
		Probes:     f.fusedProbes.Load(),
		BoundSkips: f.boundSkips.Load(),
	}
}

// GlobalIDs keys distinct grams into the global ID space: out[k] is
// the global ID of grams[k], or NoID when no installed catalog interned
// it. The caller holds the owner's read lock (the global dictionary
// keeps interning across installs).
func (f *FusedIndex) GlobalIDs(grams []string) []uint32 {
	out := make([]uint32, len(grams))
	for k, g := range grams {
		out[k], _ = f.global.Lookup(g)
	}
	return out
}

// GlobalVector assembles a source column's global-ID vector from the
// global IDs of its distinct grams (see GlobalIDs) and their counts.
// Grams no catalog knows (NoID) are dropped from the vector but kept
// in the norm — they cannot intersect any catalog and carry no bound,
// so dropping them changes no score and no bound — as are zero counts.
// norm is the column's full Euclidean norm. The result's IDs are
// sorted ascending.
func GlobalVector(gids []uint32, counts []float64, norm float64) *IDVector {
	keys := make([]uint64, 0, len(gids))
	for k, gid := range gids {
		if gid != NoID && counts[k] != 0 {
			keys = append(keys, uint64(gid)<<32|uint64(k))
		}
	}
	sorted := SortByID(keys, make([]uint64, len(keys)))
	ids := make([]uint32, len(sorted))
	cs := make([]float64, len(sorted))
	for i, key := range sorted {
		ids[i] = uint32(key >> 32)
		cs[i] = counts[uint32(key)]
	}
	return NewIDVector(ids, cs, norm)
}
