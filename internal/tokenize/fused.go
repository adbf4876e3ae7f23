package tokenize

import (
	"hash/maphash"
	"slices"
	"sync/atomic"
	"unsafe"
)

// FusedIndex is one immutable version of the registry-global retrieval
// index: a view of the global gram dictionary every installed catalog
// is interned into, plus a table of catalog slots. A source column is
// keyed into the global ID space exactly once (GlobalIDs, GlobalVector);
// one pass per column then computes a WAND-style cosine upper bound for
// every catalog at once (Bounds), so whole catalogs can be skipped
// without touching their private postings, and the exact floored scan
// runs only where the bound clears the caller's floor.
//
// The fused layer never scores exactly — exact scoring still goes
// through each catalog's own Index, fed a vector translated from the
// global ID space through the slot's inverse remap (see
// FusedSlot.LocalVector), which keeps every exact score bit-identical
// to the per-catalog path.
//
// A FusedWriter derives every version, and a version never changes once
// derived, so any number of readers may use one concurrently — without
// locks — while the writer derives the next. Versions share the global
// dictionary, which only grows: a version ignores the IDs interned
// after it (those at or above its gram count), and a rebuild starts a
// fresh dictionary instead of renumbering the shared one.
type FusedIndex struct {
	dict *gramTable
	// grams is the dictionary size when the version was derived: IDs at
	// or above it belong to later versions. dictBytes is the
	// dictionary's footprint at that point.
	grams, dictBytes int
	// slots is the slot table; nil marks a free position.
	slots []*FusedSlot
}

// FusedSlot is one installed catalog's entry in a fused index version:
// its frozen dictionary and inverted index, and the translation from
// global gram IDs to its local ones. A slot is immutable; a re-install
// or a dictionary rebuild makes a new one.
type FusedSlot struct {
	ix   *Index
	dict *Dict
	// inv translates global gram IDs to this catalog's local IDs,
	// shifted by one so 0 means "not in this catalog". Global IDs past
	// len(inv) were interned after the slot was made and therefore
	// cannot belong to it.
	inv []int32
}

// FusedWriter derives FusedIndex versions: each Set returns a new
// version and leaves every earlier one as it was. A FusedWriter is not
// safe for concurrent use — its owner serializes the writers — but the
// versions it returns may be read concurrently with it.
type FusedWriter struct {
	cur  *FusedIndex
	dict *gramTable
	// refs counts, per global ID, the slots of the current version that
	// hold the gram, and held how many IDs have a non-zero count — what
	// decides a rebuild. No version reads them.
	refs []int32
	held int
}

// NewFusedWriter returns a writer whose current version is empty.
func NewFusedWriter() *FusedWriter {
	w := &FusedWriter{dict: newGramTable()}
	w.cur = w.version(nil)
	return w
}

// Index returns the writer's current version.
func (w *FusedWriter) Index() *FusedIndex { return w.cur }

// Set derives the next version from the current one with the catalog
// (dict, ix) at slot position pos: at a free position (see
// FusedIndex.Free) it installs the catalog, at an occupied one it
// replaces the catalog there, and with a nil ix it frees pos. dict and
// ix must stay immutable for the life of the slot (prepared handles
// freeze both).
//
// The catalog's grams the shared dictionary lacks are interned; grams
// that only departed catalogs held stay in it until a rebuild reclaims
// them. The rebuild — a fresh dictionary interning the live catalogs
// in position order — runs when more than half of the dictionary's
// grams are held by no catalog, checked after every Set except a
// replacement that interned no gram, so a stream of re-installs over a
// stable vocabulary never pays for one.
func (w *FusedWriter) Set(pos int, dict *Dict, ix *Index) *FusedIndex {
	slots := slices.Clone(w.cur.slots)
	if pos == len(slots) {
		slots = append(slots, nil)
	}
	old, grams := slots[pos], w.dict.n
	slots[pos] = nil
	if ix != nil {
		slots[pos] = w.slot(dict, ix)
	}
	if old != nil {
		w.release(old)
	}
	replaced := old != nil && ix != nil
	if (!replaced || w.dict.n > grams) && 2*w.held < w.dict.n {
		w.rebuild(slots)
	}
	w.cur = w.version(slots)
	return w.cur
}

// slot interns dict into the shared dictionary and returns the
// catalog's slot, counting its grams as held.
func (w *FusedWriter) slot(dict *Dict, ix *Index) *FusedSlot {
	remap := w.dict.merge(dict)
	w.refs = append(w.refs, make([]int32, w.dict.n-len(w.refs))...)
	inv := make([]int32, w.dict.n)
	for local, gid := range remap {
		inv[gid] = int32(local) + 1
		if w.refs[gid] == 0 {
			w.held++
		}
		w.refs[gid]++
	}
	return &FusedSlot{ix: ix, dict: dict, inv: inv}
}

// release stops counting the grams s holds.
func (w *FusedWriter) release(s *FusedSlot) {
	for gid, l := range s.inv {
		if l > 0 {
			if w.refs[gid]--; w.refs[gid] == 0 {
				w.held--
			}
		}
	}
}

// rebuild interns the catalogs of slots, in position order, into a
// fresh dictionary — the one a new writer installing them in that order
// would build — and replaces each slot with its handle into it. slots
// belongs to no published version yet, so it is rewritten in place;
// the versions already published keep the old dictionary and slots.
func (w *FusedWriter) rebuild(slots []*FusedSlot) {
	w.dict, w.refs, w.held = newGramTable(), nil, 0
	for p, s := range slots {
		if s != nil {
			slots[p] = w.slot(s.dict, s.ix)
		}
	}
}

// version wraps slots as a version over the dictionary as it stands.
func (w *FusedWriter) version(slots []*FusedSlot) *FusedIndex {
	return &FusedIndex{dict: w.dict, grams: w.dict.n, dictBytes: w.dict.bytes(), slots: slots}
}

// Slots returns the slot-table length, free positions included — the
// required length of a Bounds bounds slice.
func (f *FusedIndex) Slots() int { return len(f.slots) }

// Slot returns the catalog at position pos, nil for a free or
// out-of-range position.
func (f *FusedIndex) Slot(pos int) *FusedSlot {
	if pos < 0 || pos >= len(f.slots) {
		return nil
	}
	return f.slots[pos]
}

// Free returns the lowest free position: the one a new catalog is
// installed at.
func (f *FusedIndex) Free() int {
	if p := slices.Index(f.slots, nil); p >= 0 {
		return p
	}
	return len(f.slots)
}

// Index returns the catalog's own inverted index, which exact scans
// run against.
func (s *FusedSlot) Index() *Index { return s.ix }

// Local translates a global gram ID of the version the slot was taken
// from (see GlobalIDs) to the catalog's local ID, or reports false when
// the catalog lacks the gram (NoID included).
func (s *FusedSlot) Local(gid uint32) (uint32, bool) {
	if int(gid) < len(s.inv) {
		if l := s.inv[gid]; l > 0 {
			return uint32(l - 1), true
		}
	}
	return 0, false
}

// Bounds makes the bound pass for one source column, slot by slot: for
// every occupied position p, bounds[p] becomes Σ over src grams g, in
// ascending global gram ID order, of (src_g/‖src‖)·maxW_p[g] — the WAND
// max-score cosine bound of the column against catalog p, where
// maxW_p[g] is the gram's largest normalized weight in any of the
// catalog's columns, the per-gram bound its own ScoreColumnsFloored
// uses. src must be keyed in this version's global ID space (see
// GlobalVector); grams a catalog lacks contribute nothing, exactly like
// out-of-vocabulary grams in the per-catalog bound. bounds must have
// length Slots() and arrive zeroed.
func (f *FusedIndex) Bounds(src *IDVector, bounds []float64) {
	sn := src.Norm()
	if sn == 0 {
		return
	}
	w := make([]float64, len(src.Counts))
	for i, c := range src.Counts {
		w[i] = c / sn
	}
	for p, s := range f.slots {
		if s != nil {
			bounds[p] = s.bound(src.IDs, w)
		}
	}
}

// bound sums the slot's share of a bound pass. A gram without postings
// has maxW 0, as BuildIndex leaves it and snapshots record it, so it
// adds exactly +0; a local ID past maxW (an index restored shorter than
// its dictionary) adds nothing.
func (s *FusedSlot) bound(ids []uint32, w []float64) float64 {
	inv, maxW := s.inv, s.ix.maxW
	var b float64
	for i, gid := range ids {
		if int(gid) >= len(inv) {
			// IDs ascend; every later one was interned after the slot.
			break
		}
		if l := int(inv[gid]); l > 0 && l <= len(maxW) {
			b += w[i] * maxW[l-1]
		}
	}
	return b
}

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
	for i, gid := range src.IDs {
		if l, ok := s.Local(gid); ok {
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

// FusedStats sizes a fused index version and reports its owner's
// lifetime bound-pass effectiveness.
type FusedStats struct {
	// Slots counts the slot table, free positions included, and Live
	// the installed catalogs. Tombstones is always 0: a removal frees
	// its position at once. The field stays for callers that read it.
	Slots, Live, Tombstones int
	// Grams is the global dictionary size, grams held only by departed
	// catalogs included; Bytes estimates the version's memory — the
	// dictionary, the slot table and the inverse remaps.
	Grams, Bytes int
	// Probes counts bound passes (one per source column per retrieval);
	// BoundSkips the catalog-columns whose exact scan the bound alone
	// proved unnecessary. A version does not count them: its owner
	// does, across versions, so both only grow.
	Probes, BoundSkips int64
}

// Stats sizes the version. Probes and BoundSkips are left for the
// owner to fill in.
func (f *FusedIndex) Stats() FusedStats {
	st := FusedStats{Slots: len(f.slots), Grams: f.grams}
	st.Bytes = f.dictBytes + len(f.slots)*int(unsafe.Sizeof((*FusedSlot)(nil)))
	for _, s := range f.slots {
		if s != nil {
			st.Live++
			st.Bytes += len(s.inv) * 4
		}
	}
	return st
}

// GlobalIDs keys distinct grams into the version's global ID space:
// out[k] is the global ID of grams[k], or NoID when no catalog of the
// version interned it. Safe while the writer interns later grams,
// which this version does not see.
func (f *FusedIndex) GlobalIDs(grams []string) []uint32 {
	out := make([]uint32, len(grams))
	probe := *f.dict.probe.Load()
	for k, g := range grams {
		out[k] = NoID
		if id, ok := f.dict.lookup(probe, g); ok && int(id) < f.grams {
			out[k] = id
		}
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

// gramTable is the global gram dictionary the versions of one writer
// share until a rebuild. It only grows: the writer interns each new
// gram under the next dense ID, and readers look grams up at the same
// time without locking. It is an open-addressing table with linear
// probing over an array of entry pointers kept at most half full; the
// writer publishes a doubled array when an intern would pass that, as
// a Go map grows, and a reader still holding the old array finds in it
// every gram its version covers.
type gramTable struct {
	seed  maphash.Seed
	probe atomic.Pointer[[]atomic.Pointer[gramEntry]]
	// Writer-only: the gram count, the grams' total length, and entries
	// allocated ahead in one block.
	n, size int
	spare   []gramEntry
}

type gramEntry struct {
	gram string
	id   uint32
}

func newGramTable() *gramTable {
	t := &gramTable{seed: maphash.MakeSeed()}
	probe := make([]atomic.Pointer[gramEntry], 64)
	t.probe.Store(&probe)
	return t
}

// lookup finds g in a probe array the caller loaded.
func (t *gramTable) lookup(probe []atomic.Pointer[gramEntry], g string) (uint32, bool) {
	mask := uint64(len(probe) - 1)
	for i := maphash.String(t.seed, g) & mask; ; i = (i + 1) & mask {
		e := probe[i].Load()
		if e == nil {
			return NoID, false
		}
		if e.gram == g {
			return e.id, true
		}
	}
}

// merge interns every gram of d, in d's own ID order, and returns the
// remap from d's IDs to global ones: installing the same catalogs in
// the same order always reproduces the same global IDs.
func (t *gramTable) merge(d *Dict) []uint32 {
	remap := make([]uint32, len(d.grams))
	for id, g := range d.grams {
		remap[id] = t.intern(g)
	}
	return remap
}

// intern returns g's ID, interning g under the next ID if it is new.
func (t *gramTable) intern(g string) uint32 {
	probe := *t.probe.Load()
	if id, ok := t.lookup(probe, g); ok {
		return id
	}
	if 2*(t.n+1) > len(probe) {
		grown := make([]atomic.Pointer[gramEntry], 2*len(probe))
		for i := range probe {
			if e := probe[i].Load(); e != nil {
				t.place(grown, e)
			}
		}
		t.probe.Store(&grown)
		probe = grown
	}
	if len(t.spare) == 0 {
		t.spare = make([]gramEntry, max(64, t.n/4))
	}
	e := &t.spare[0]
	t.spare = t.spare[1:]
	*e = gramEntry{gram: g, id: nextID(t.n)}
	t.place(probe, e)
	t.n++
	t.size += len(g)
	return e.id
}

// place stores e in the first empty position of its probe sequence.
func (t *gramTable) place(probe []atomic.Pointer[gramEntry], e *gramEntry) {
	mask := uint64(len(probe) - 1)
	i := maphash.String(t.seed, e.gram) & mask
	for probe[i].Load() != nil {
		i = (i + 1) & mask
	}
	probe[i].Store(e)
}

// bytes estimates the table's memory: gram bytes, one entry per gram
// and the probe array.
func (t *gramTable) bytes() int {
	return t.size + t.n*int(unsafe.Sizeof(gramEntry{})) + len(*t.probe.Load())*8
}
