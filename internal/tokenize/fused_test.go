package tokenize

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fusedFixture is one installable catalog: a frozen dictionary, its
// inverted index, and the columns behind them (kept so tests can build
// source vectors in the catalog's vocabulary).
type fusedFixture struct {
	dict *Dict
	ix   *Index
	cols []*IDVector
}

func makeFusedFixtures(rng *rand.Rand, n int) []fusedFixture {
	out := make([]fusedFixture, n)
	for i := range out {
		d, cols := randomColumns(rng, 2+rng.Intn(6), 5+rng.Intn(30))
		ix := BuildIndex(cols, d.Len())
		d.Freeze()
		out[i] = fusedFixture{dict: d, ix: ix, cols: cols}
	}
	return out
}

// requireFusedEqual asserts got is structurally bit-identical to want:
// same global dictionary (gram-for-gram, ID-for-ID), same fused runs,
// and slot-for-slot the same position and inverse remap. liveSlots
// are got's handles in expected slot order, so handle survival across
// compaction is checked too.
func requireFusedEqual(t *testing.T, got, want *FusedIndex, liveSlots []*FusedSlot) {
	t.Helper()
	if got.global.Len() != want.global.Len() {
		t.Fatalf("global dict: %d grams, want %d", got.global.Len(), want.global.Len())
	}
	for id := 0; id < want.global.Len(); id++ {
		if g, w := got.global.Gram(uint32(id)), want.global.Gram(uint32(id)); g != w {
			t.Fatalf("global gram %d: %q, want %q", id, g, w)
		}
	}
	if len(got.lists) != len(want.lists) {
		t.Fatalf("fused lists: %d, want %d", len(got.lists), len(want.lists))
	}
	for gid := range want.lists {
		if !slices.Equal(got.lists[gid], want.lists[gid]) {
			t.Fatalf("fused runs for gram %d: %+v, want %+v", gid, got.lists[gid], want.lists[gid])
		}
	}
	if len(got.slots) != len(want.slots) || len(got.slots) != len(liveSlots) {
		t.Fatalf("slot table: %d slots, want %d (%d handles live)",
			len(got.slots), len(want.slots), len(liveSlots))
	}
	for i, w := range want.slots {
		g := got.slots[i]
		if g != liveSlots[i] {
			t.Fatalf("slot %d: handle did not survive compaction", i)
		}
		if g.dead || g.pos != i || w.pos != i {
			t.Fatalf("slot %d: dead=%v pos=%d, want live at pos %d", i, g.dead, g.pos, i)
		}
		if !slices.Equal(g.inv, w.inv) {
			t.Fatalf("slot %d: inverse remap diverges", i)
		}
	}
	gs, ws := got.Stats(), want.Stats()
	gs.Probes, gs.BoundSkips = 0, 0
	ws.Probes, ws.BoundSkips = 0, 0
	if gs != ws {
		t.Fatalf("stats: %+v, want %+v", gs, ws)
	}
}

// globalSource keys a random fixture column (plus an out-of-vocabulary
// tail kept only in the norm) into f's global ID space.
func globalSource(rng *rand.Rand, f *FusedIndex, pool []fusedFixture) *IDVector {
	fx := pool[rng.Intn(len(pool))]
	col := fx.cols[rng.Intn(len(fx.cols))]
	grams := make([]string, col.NNZ())
	counts := make([]float64, col.NNZ())
	var norm2 float64
	for i, id := range col.IDs {
		grams[i] = fx.dict.Gram(id)
		counts[i] = col.Counts[i]
		norm2 += counts[i] * counts[i]
	}
	// An unseen gram: dropped from the vector, kept in the norm.
	grams = append(grams, "zzz-unseen-gram")
	counts = append(counts, 2)
	norm2 += 4
	return GlobalVector(f.GlobalIDs(grams), counts, math.Sqrt(norm2))
}

// TestFusedCompactBitIdentical is the compaction property at the
// structural level: at any threshold, after any random install/remove
// trace, whenever the index holds no tombstones (threshold-triggered,
// half-dead-triggered, or forced compaction) it must be bit-identical —
// global dictionary, fused runs, slot remaps, stats — to a FusedIndex
// freshly built by installing the surviving catalogs in slot order.
// Retrieval behaviour (bound accumulation and local translation) is
// compared bitwise on top of the structural equality.
func TestFusedCompactBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pool := makeFusedFixtures(rng, 10)
	// 1 compacts on every remove; 2 and the default exercise tombstoned
	// intermediate states; 100 leaves compaction to the half-dead rule
	// and to forced Compact calls.
	for _, threshold := range []int{1, 2, DefaultCompactThreshold, 100} {
		f := NewFusedIndex(threshold)
		type installed struct {
			fi   int
			slot *FusedSlot
		}
		var live []installed
		compared := 0
		for op := 0; op < 80; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				f.Remove(live[k].slot)
				f.Remove(live[k].slot) // removing a dead slot must be a no-op
				live = slices.Delete(live, k, k+1)
			} else {
				fi := rng.Intn(len(pool))
				live = append(live, installed{fi, f.Install(pool[fi].dict, pool[fi].ix)})
			}
			if rng.Intn(10) == 0 {
				f.Compact()
			}
			if f.tombs != 0 {
				continue
			}
			compared++
			ref := NewFusedIndex(threshold)
			for _, in := range live {
				ref.Install(pool[in.fi].dict, pool[in.fi].ix)
			}
			handles := make([]*FusedSlot, len(live))
			for i, in := range live {
				handles[i] = in.slot
			}
			requireFusedEqual(t, f, ref, handles)
			if len(live) == 0 {
				continue
			}
			src := globalSource(rng, f, pool)
			gb := make([]float64, f.Slots())
			wb := make([]float64, ref.Slots())
			f.AccumulateBounds(src, gb)
			ref.AccumulateBounds(src, wb)
			if !slices.Equal(gb, wb) {
				t.Fatalf("threshold %d op %d: bounds %v, want %v", threshold, op, gb, wb)
			}
			var gs, ws LocalVectorScratch
			for i := range f.slots {
				gv := f.slots[i].LocalVector(src, &gs)
				wv := ref.slots[i].LocalVector(src, &ws)
				if !slices.Equal(gv.IDs, wv.IDs) || !slices.Equal(gv.Counts, wv.Counts) || gv.Norm() != wv.Norm() {
					t.Fatalf("threshold %d op %d slot %d: local vectors diverge", threshold, op, i)
				}
			}
		}
		if compared == 0 {
			t.Fatalf("threshold %d: trace never reached a tombstone-free state", threshold)
		}
	}
}

// TestFusedHalfDeadCompaction pins the half-dead rule: with a threshold
// far above the fleet size, tombstoning half the slots must still
// trigger a compaction.
func TestFusedHalfDeadCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pool := makeFusedFixtures(rng, 4)
	f := NewFusedIndex(100)
	slots := make([]*FusedSlot, len(pool))
	for i, fx := range pool {
		slots[i] = f.Install(fx.dict, fx.ix)
	}
	f.Remove(slots[1])
	if st := f.Stats(); st.Slots != 4 || st.Live != 3 || st.Tombstones != 1 {
		t.Fatalf("one tombstone below threshold should persist: %+v", st)
	}
	f.Remove(slots[3])
	st := f.Stats()
	if st.Slots != 2 || st.Live != 2 || st.Tombstones != 0 {
		t.Fatalf("half-dead slot table did not compact: %+v", st)
	}
	if slots[0].pos != 0 || slots[2].pos != 1 {
		t.Fatalf("surviving handles not repositioned: %d, %d", slots[0].pos, slots[2].pos)
	}
}
