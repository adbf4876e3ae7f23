package tokenize

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortByIDMatchesComparisonSort: for distinct IDs of every width
// (one to four significant bytes) and sizes on both sides of the
// insertion-sort cutoff, SortByID returns exactly what a comparison
// sort of the packed keys returns, payloads riding along.
func TestSortByIDMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 257, 4000}
	for _, limit := range []int{300, 1 << 9, 1 << 16, 1 << 20, 1 << 31} {
		for _, n := range sizes {
			if n > limit {
				continue
			}
			seen := map[uint32]bool{}
			keys := make([]uint64, 0, n)
			for len(keys) < n {
				id := uint32(rng.Int63n(int64(limit)))
				if seen[id] {
					continue
				}
				seen[id] = true
				keys = append(keys, uint64(id)<<32|uint64(rng.Uint32()))
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got := SortByID(keys, make([]uint64, n))
			if !slices.Equal(got, want) {
				t.Fatalf("limit %d n %d: radix order diverges from comparison sort", limit, n)
			}
		}
	}
}

// localVectorReference is the comparison-sort LocalVector the radix
// version replaced: map each global ID through inv, sort the known
// (local ID, count) pairs with slices.SortFunc, append overflow IDs
// from the dictionary's end in source order.
func localVectorReference(s *FusedSlot, src *IDVector) *IDVector {
	if src.NNZ() == 0 {
		return src
	}
	type pair struct {
		id uint32
		c  float64
	}
	var mapped []pair
	var overflow []float64
	for i, gid := range src.IDs {
		if int(gid) < len(s.inv) {
			if l := s.inv[gid]; l > 0 {
				mapped = append(mapped, pair{uint32(l - 1), src.Counts[i]})
				continue
			}
		}
		overflow = append(overflow, src.Counts[i])
	}
	slices.SortFunc(mapped, func(a, b pair) int {
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	var ids []uint32
	var counts []float64
	for _, p := range mapped {
		ids = append(ids, p.id)
		counts = append(counts, p.c)
	}
	base := uint32(s.dict.Len())
	for k, c := range overflow {
		ids = append(ids, base+uint32(k))
		counts = append(counts, c)
	}
	return NewIDVector(ids, counts, src.Norm())
}

// TestLocalVectorRadixMatchesReference is the sort-free projection's
// property: over random global→local remaps of catalogs small and
// large (one to three radix passes), with source vectors holding grams
// the slot lacks and global IDs past its remap (interned after its
// install), at sizes from empty and single-gram through both sides of
// the insertion-sort cutoff, LocalVector returns the same IDs, counts
// and norm as the comparison-sort reference — with one scratch reused
// across every probe, as the fleet reuses it.
func TestLocalVectorRadixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch LocalVectorScratch
	for _, local := range []int{40, 300, 5000, 70000} {
		d := NewDict()
		for i := 0; i < local; i++ {
			d.Intern(fmt.Sprintf("g%07d", i))
		}
		d.Freeze()
		for trial := 0; trial < 6; trial++ {
			// A random injective remap: global space twice the catalog,
			// about half of it belonging to this slot.
			global := 2 * local
			inv := make([]int32, global)
			perm := rng.Perm(local)
			for gid, p := 0, 0; gid < global && p < local; gid++ {
				if rng.Intn(2) == 0 {
					inv[gid] = int32(perm[p]) + 1
					p++
				}
			}
			s := &FusedSlot{dict: d, inv: inv}
			for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 500, 3000} {
				// Source IDs range past len(inv): those grams were
				// interned after the slot's install.
				ids := rng.Perm(global + global/4)
				if n < len(ids) {
					ids = ids[:n]
				}
				slices.Sort(ids)
				src := &IDVector{}
				var norm2 float64
				for _, id := range ids {
					c := float64(1 + rng.Intn(9))
					src.IDs = append(src.IDs, uint32(id))
					src.Counts = append(src.Counts, c)
					norm2 += c * c
				}
				src.norm = math.Sqrt(norm2)
				got := s.LocalVector(src, &scratch)
				want := localVectorReference(s, src)
				if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Counts, want.Counts) || got.Norm() != want.Norm() {
					t.Fatalf("catalog %d trial %d n %d: local vector diverges from the comparison-sort reference", local, trial, n)
				}
			}
		}
	}
}
