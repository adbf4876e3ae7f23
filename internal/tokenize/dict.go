package tokenize

import (
	"iter"
	"math"
	"slices"
	"unsafe"
)

// NoID marks a gram unknown to a frozen Dict; frozen classifiers route
// it to their out-of-vocabulary bucket.
const NoID = ^uint32(0)

// Dict interns gram (or word) strings to dense uint32 IDs so that the
// hot matching and classification paths can replace string-keyed maps
// with flat slices indexed by ID. A Dict has two phases: while building
// (Prepare time) Intern assigns fresh IDs; after Freeze it is immutable
// and safe for concurrent readers, and unknown grams resolve to NoID.
type Dict struct {
	ids    map[string]uint32
	grams  []string
	frozen bool
}

// NewDict returns an empty, unfrozen dictionary.
func NewDict() *Dict {
	return &Dict{ids: map[string]uint32{}}
}

// Intern returns the ID of g, assigning the next dense ID if g is new.
// It must not be called after Freeze (the frozen form is shared across
// goroutines without locks); doing so panics.
func (d *Dict) Intern(g string) uint32 {
	if id, ok := d.ids[g]; ok {
		return id
	}
	if d.frozen {
		panic("tokenize: Intern on a frozen Dict")
	}
	id := nextID(len(d.grams))
	d.ids[g] = id
	d.grams = append(d.grams, g)
	return id
}

// nextID converts a dictionary size to the ID the next gram receives,
// guarding the uint32 boundary: NoID is reserved as the unknown-gram
// sentinel, so a dictionary holding NoID grams cannot grow (interning
// one more would alias the sentinel and silently corrupt every frozen
// classifier's OOV routing).
func nextID(n int) uint32 {
	if uint64(n) >= uint64(NoID) {
		panic("tokenize: Dict overflow: gram count reached the uint32 sentinel")
	}
	return uint32(n)
}

// MergeInto interns every gram of d into global, in d's own insertion
// order, and returns the remap table from d's IDs to global's. Merging
// per-shard dictionaries in shard order reproduces exactly the ID
// assignment a single sequential pass over the shards would have
// produced, which is what keeps the parallel Prepare path bit-identical
// to the sequential one.
func (d *Dict) MergeInto(global *Dict) []uint32 {
	remap := make([]uint32, len(d.grams))
	for id, g := range d.grams {
		remap[id] = global.Intern(g)
	}
	return remap
}

// Remapped returns a copy of v with every ID translated through remap
// (IDs ≥ len(remap) are kept, preserving per-build overflow IDs),
// re-sorted by the new IDs (SortByID), with the norm recomputed in the
// new sorted order — the exact norm a VectorBuilder keyed to the target
// ID space would have produced, so remapped vectors are bit-identical
// to directly-built ones.
func Remapped(v *IDVector, remap []uint32) *IDVector {
	if v.NNZ() == 0 {
		return v
	}
	keys := make([]uint64, v.NNZ())
	for i, id := range v.IDs {
		if int(id) < len(remap) {
			id = remap[id]
		}
		keys[i] = uint64(id)<<32 | uint64(i)
	}
	sorted := SortByID(keys, make([]uint64, len(keys)))
	ids := make([]uint32, len(sorted))
	counts := make([]float64, len(sorted))
	var norm2 float64
	for i, key := range sorted {
		c := v.Counts[uint32(key)]
		ids[i] = uint32(key >> 32)
		counts[i] = c
		norm2 += c * c
	}
	return &IDVector{IDs: ids, Counts: counts, norm: math.Sqrt(norm2)}
}

// Lookup returns the ID of g, or (NoID, false) when g was never
// interned. Safe for concurrent use once the Dict is frozen.
func (d *Dict) Lookup(g string) (uint32, bool) {
	id, ok := d.ids[g]
	if !ok {
		return NoID, false
	}
	return id, true
}

// Freeze ends the building phase: the Dict becomes immutable and safe
// to share between goroutines. Freeze is idempotent.
func (d *Dict) Freeze() { d.frozen = true }

// Frozen reports whether Freeze has been called.
func (d *Dict) Frozen() bool { return d.frozen }

// Len returns how many distinct grams have been interned; valid IDs are
// exactly [0, Len).
func (d *Dict) Len() int { return len(d.grams) }

// Gram returns the string interned under id.
func (d *Dict) Gram(id uint32) string { return d.grams[id] }

// Bytes estimates the memory pinned by the dictionary: gram bytes plus
// slice and map-entry overhead, the figure a serving layer reports per
// prepared catalog.
func (d *Dict) Bytes() int {
	n := 0
	for _, g := range d.grams {
		n += len(g)
	}
	// Each gram is referenced by one slice header and one map entry
	// (string header + uint32, rounded up for bucket overhead).
	const perEntry = int(unsafe.Sizeof("")) * 2 * 2
	return n + len(d.grams)*perEntry
}

// TrigramIDs yields the ID of every trigram of s, in TrigramSeq order,
// resolving unknown grams to NoID. It never interns: use it on frozen
// dictionaries in the serving hot path (zero allocations for folded
// input).
func (d *Dict) TrigramIDs(s string) iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		for g := range TrigramSeq(s) {
			id, ok := d.ids[g]
			if !ok {
				id = NoID
			}
			if !yield(id) {
				return
			}
		}
	}
}

// IDVector is a sparse token-frequency vector keyed by dense gram IDs:
// parallel slices sorted by ID, with the Euclidean norm computed once at
// build time. It is immutable after Build and safe to share between
// goroutines; CosineIDs over two IDVectors is a deterministic merge walk
// (unlike a map-keyed vector, whose iteration order perturbs the
// floating-point sum between runs).
type IDVector struct {
	IDs    []uint32
	Counts []float64
	norm   float64
}

// Norm returns the Euclidean norm cached at build time.
func (v *IDVector) Norm() float64 { return v.norm }

// NNZ returns the number of distinct grams in the vector.
func (v *IDVector) NNZ() int { return len(v.IDs) }

// Mass returns the total token count, Σ counts.
func (v *IDVector) Mass() float64 {
	var s float64
	for _, c := range v.Counts {
		s += c
	}
	return s
}

// emptyIDVector backs NNZ==0 results so callers never see nil.
var emptyIDVector = &IDVector{}

// NewIDVector wraps pre-sorted parallel slices and a precomputed norm
// as an IDVector. The caller must guarantee the IDs are strictly
// ascending and norm is the Euclidean norm of counts accumulated in
// that order — the contract feature layers that assemble vectors
// outside VectorBuilder (e.g. from per-row slot segments) maintain.
func NewIDVector(ids []uint32, counts []float64, norm float64) *IDVector {
	if len(ids) == 0 {
		return emptyIDVector
	}
	return &IDVector{IDs: ids, Counts: counts, norm: norm}
}

// VectorBuilder accumulates gram counts by ID and extracts sorted
// IDVectors. One builder is reused across many columns (Build resets
// it), so steady-state vector construction allocates only the result
// slices. The zero value is not ready; use NewVectorBuilder.
type VectorBuilder struct {
	counts map[uint32]float64
	// local assigns per-build overflow IDs (starting at base) to grams
	// unknown to a frozen shared dictionary. Overflow IDs are only
	// consistent within one built vector — never across vectors — which
	// is sound because vectors from the same frozen dictionary are only
	// ever compared against vectors whose IDs all come from the
	// dictionary itself: an overflow gram can never intersect, it only
	// contributes to the norm and to set sizes.
	local map[string]uint32
	base  uint32
}

// NewVectorBuilder returns an empty builder.
func NewVectorBuilder() *VectorBuilder {
	return &VectorBuilder{counts: map[uint32]float64{}, local: map[string]uint32{}}
}

// AddGram counts one occurrence of gram g against dictionary d: interned
// normally while d is building, or assigned a per-build overflow ID
// (≥ d.Len(), never colliding with a real ID) once d is frozen.
func (b *VectorBuilder) AddGram(d *Dict, g string) {
	if id, ok := d.ids[g]; ok {
		b.counts[id]++
		return
	}
	if !d.frozen {
		b.counts[d.Intern(g)]++
		return
	}
	id, ok := b.local[g]
	if !ok {
		id = b.base + uint32(len(b.local))
		b.local[g] = id
	}
	b.counts[id]++
}

// AddTrigrams folds the trigrams of s into the builder via AddGram,
// allocating nothing beyond map growth.
func (b *VectorBuilder) AddTrigrams(d *Dict, s string) {
	b.base = uint32(d.Len())
	for g := range TrigramSeq(s) {
		b.AddGram(d, g)
	}
}

// Build extracts the accumulated counts as a sorted, norm-cached
// IDVector and resets the builder for reuse.
func (b *VectorBuilder) Build() *IDVector {
	if len(b.counts) == 0 {
		clear(b.local)
		return emptyIDVector
	}
	ids := make([]uint32, 0, len(b.counts))
	for id := range b.counts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	counts := make([]float64, len(ids))
	var norm2 float64
	for i, id := range ids {
		c := b.counts[id]
		counts[i] = c
		norm2 += c * c
	}
	clear(b.counts)
	clear(b.local)
	return &IDVector{IDs: ids, Counts: counts, norm: math.Sqrt(norm2)}
}

// CosineIDs returns the cosine similarity of two ID-keyed vectors in
// [0,1] (0 when either is empty). The dot product walks the sorted ID
// slices — a two-pointer merge when the sizes are comparable, a binary
// search of the larger side when they are skewed — so the summation
// order is fixed and the result is bit-for-bit reproducible.
func CosineIDs(a, b *IDVector) float64 {
	if a.NNZ() == 0 || b.NNZ() == 0 {
		return 0
	}
	if b.NNZ() < a.NNZ() {
		a, b = b, a
	}
	var dot float64
	if a.NNZ()*16 < b.NNZ() {
		// Skewed: gallop through the big side.
		lo := 0
		for i, id := range a.IDs {
			j, ok := slices.BinarySearch(b.IDs[lo:], id)
			lo += j
			if ok {
				dot += a.Counts[i] * b.Counts[lo]
				lo++
			}
			if lo >= len(b.IDs) {
				break
			}
		}
	} else {
		i, j := 0, 0
		for i < len(a.IDs) && j < len(b.IDs) {
			switch {
			case a.IDs[i] < b.IDs[j]:
				i++
			case a.IDs[i] > b.IDs[j]:
				j++
			default:
				dot += a.Counts[i] * b.Counts[j]
				i++
				j++
			}
		}
	}
	na, nb := a.norm, b.norm
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// JaccardIDs returns the Jaccard similarity of the gram ID sets of two
// vectors, the ID-keyed counterpart of Jaccard.
func JaccardIDs(a, b *IDVector) float64 {
	if a.NNZ() == 0 && b.NNZ() == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := a.NNZ() + b.NNZ() - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
