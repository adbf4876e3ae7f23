package tokenize

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// fusedFixture is one installable catalog: a frozen dictionary, its
// inverted index, and the columns behind them (kept so tests can build
// source columns in the catalog's vocabulary).
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

// wordFixture builds a catalog with one column per word list.
func wordFixture(columns ...[]string) fusedFixture {
	d, b := NewDict(), NewVectorBuilder()
	var cols []*IDVector
	for _, words := range columns {
		for _, w := range words {
			b.AddTrigrams(d, w)
		}
		cols = append(cols, b.Build())
	}
	ix := BuildIndex(cols, d.Len())
	d.Freeze()
	return fusedFixture{dict: d, ix: ix, cols: cols}
}

// fusedProbe is a source column by gram string: a fixture column's
// grams plus one no catalog holds, which stays in the norm only.
type fusedProbe struct {
	grams  []string
	counts []float64
	norm   float64
}

func makeProbes(rng *rand.Rand, pool []fusedFixture, n int) []fusedProbe {
	out := make([]fusedProbe, n)
	for i := range out {
		fx := pool[rng.Intn(len(pool))]
		col := fx.cols[rng.Intn(len(fx.cols))]
		var p fusedProbe
		var norm2 float64
		for k, id := range col.IDs {
			p.grams = append(p.grams, fx.dict.Gram(id))
			p.counts = append(p.counts, col.Counts[k])
			norm2 += col.Counts[k] * col.Counts[k]
		}
		p.grams = append(p.grams, fmt.Sprintf("zz%d", i))
		p.counts = append(p.counts, 2)
		p.norm = math.Sqrt(norm2 + 4)
		out[i] = p
	}
	return out
}

// fingerprint renders everything a reader can observe of version v for
// probe p — its global IDs, the bound of every position and every
// catalog's local vector — as one comparable sequence of bits.
func fingerprint(v *FusedIndex, p fusedProbe) []uint64 {
	gids := v.GlobalIDs(p.grams)
	var out []uint64
	for _, id := range gids {
		out = append(out, uint64(id))
	}
	src := GlobalVector(gids, p.counts, p.norm)
	bounds := make([]float64, v.Slots())
	v.Bounds(src, bounds)
	var scratch LocalVectorScratch
	for pos, b := range bounds {
		out = append(out, math.Float64bits(b))
		if s := v.Slot(pos); s != nil {
			lv := s.LocalVector(src, &scratch)
			for k, id := range lv.IDs {
				out = append(out, uint64(id), math.Float64bits(lv.Counts[k]))
			}
			out = append(out, math.Float64bits(lv.Norm()))
		}
	}
	return out
}

// oracleBound is the per-catalog bound as gram-major run lists summed
// it: the column's grams in ascending global ID order, each looked up
// by string in the catalog's own dictionary, every gram with postings
// adding (count/‖src‖)·maxW.
func oracleBound(s *FusedSlot, gids []uint32, p fusedProbe) float64 {
	order := make([]int, 0, len(gids))
	for k, id := range gids {
		if id != NoID {
			order = append(order, k)
		}
	}
	sort.Slice(order, func(a, b int) bool { return gids[order[a]] < gids[order[b]] })
	var b float64
	for _, k := range order {
		if l, ok := s.dict.Lookup(p.grams[k]); ok && len(s.ix.lists[l]) > 0 {
			b += p.counts[k] / p.norm * s.ix.maxW[l]
		}
	}
	return b
}

// oracleLocal is the per-catalog rekeying LocalVector must reproduce:
// the global vector's grams looked up by string in the catalog's own
// dictionary, known ones sorted by local ID, the rest numbered from the
// dictionary's end in global order.
func oracleLocal(s *FusedSlot, src *IDVector, gramOf map[uint32]string) *IDVector {
	type pair struct {
		id uint32
		c  float64
	}
	var known []pair
	var overflow []float64
	for k, gid := range src.IDs {
		if l, ok := s.dict.Lookup(gramOf[gid]); ok {
			known = append(known, pair{l, src.Counts[k]})
			continue
		}
		overflow = append(overflow, src.Counts[k])
	}
	sort.Slice(known, func(a, b int) bool { return known[a].id < known[b].id })
	var ids []uint32
	var counts []float64
	for _, p := range known {
		ids = append(ids, p.id)
		counts = append(counts, p.c)
	}
	for k, c := range overflow {
		ids = append(ids, uint32(s.dict.Len()+k))
		counts = append(counts, c)
	}
	return NewIDVector(ids, counts, src.Norm())
}

// TestFusedBoundsMatchOracle is the fused index's property against the
// per-catalog oracle: over random traces of installs, replacements and
// removals — rebuilds included — every version's bounds and local
// vectors agree bitwise with what each catalog's own dictionary and
// index give, and every live gram has a global ID below the version's
// gram count.
func TestFusedBoundsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pool := makeFusedFixtures(rng, 10)
	probes := makeProbes(rng, pool, 12)
	w := NewFusedWriter()
	rebuilds := 0
	for op := 0; op < 120; op++ {
		before := w.dict
		randomSet(rng, w, pool)
		v := w.Index()
		if st := v.Stats(); st.Slots != v.Slots() || st.Live > st.Slots || st.Tombstones != 0 {
			t.Fatalf("op %d: stats %+v", op, st)
		}
		for pos := 0; pos < v.Slots(); pos++ {
			s := v.Slot(pos)
			if s == nil {
				continue
			}
			ids := v.GlobalIDs(s.dict.grams)
			for k, id := range ids {
				if id == NoID || int(id) >= v.grams {
					t.Fatalf("op %d: live gram %q has global ID %d of %d", op, s.dict.grams[k], id, v.grams)
				}
			}
		}
		if w.dict != before {
			rebuilds++
		}
		for _, p := range probes {
			gids := v.GlobalIDs(p.grams)
			gramOf := map[uint32]string{}
			for k, id := range gids {
				gramOf[id] = p.grams[k]
			}
			src := GlobalVector(gids, p.counts, p.norm)
			bounds := make([]float64, v.Slots())
			v.Bounds(src, bounds)
			var scratch LocalVectorScratch
			for pos, b := range bounds {
				s := v.Slot(pos)
				if s == nil {
					if b != 0 {
						t.Fatalf("op %d: free position %d has bound %v", op, pos, b)
					}
					continue
				}
				if want := oracleBound(s, gids, p); math.Float64bits(b) != math.Float64bits(want) {
					t.Fatalf("op %d pos %d: bound %v, oracle %v", op, pos, b, want)
				}
				got, want := s.LocalVector(src, &scratch), oracleLocal(s, src, gramOf)
				if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Counts, want.Counts) || got.Norm() != want.Norm() {
					t.Fatalf("op %d pos %d: local vector diverges from the oracle", op, pos)
				}
			}
		}
	}
	if rebuilds == 0 {
		t.Fatal("trace never rebuilt the dictionary")
	}
}

// randomSet applies one random Set to w: a removal, a replacement or an
// install at the lowest free position, the catalogs drawn from pool.
func randomSet(rng *rand.Rand, w *FusedWriter, pool []fusedFixture) {
	v := w.Index()
	switch occupied := v.Stats().Live; {
	case occupied > 0 && rng.Intn(3) == 0:
		w.Set(randomOccupied(rng, v), nil, nil)
	case occupied > 0 && rng.Intn(2) == 0:
		fx := pool[rng.Intn(len(pool))]
		w.Set(randomOccupied(rng, v), fx.dict, fx.ix)
	default:
		fx := pool[rng.Intn(len(pool))]
		w.Set(v.Free(), fx.dict, fx.ix)
	}
}

func randomOccupied(rng *rand.Rand, v *FusedIndex) int {
	for {
		if pos := rng.Intn(v.Slots()); v.Slot(pos) != nil {
			return pos
		}
	}
}

// dictGrams lists v's global dictionary by ID, up to v's gram count.
func dictGrams(v *FusedIndex) []string {
	out := make([]string, v.grams)
	probe := *v.dict.probe.Load()
	for i := range probe {
		if e := probe[i].Load(); e != nil && int(e.id) < v.grams {
			out[e.id] = e.gram
		}
	}
	return out
}

// TestFusedCompactBitIdentical is the compaction property: over random
// install/replace/remove traces, every version whose dictionary a
// rebuild compacted is bit-identical — global dictionary gram for gram
// and ID for ID, each live slot's inverse remap, stats, and every
// probe's global IDs, bounds and local vectors — to the version a new
// writer derives by installing the live catalogs in position order.
func TestFusedCompactBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pool := makeFusedFixtures(rng, 10)
	probes := makeProbes(rng, pool, 12)
	w := NewFusedWriter()
	compared := 0
	for op := 0; op < 200; op++ {
		before := w.dict
		randomSet(rng, w, pool)
		if w.dict == before {
			continue
		}
		compared++
		v := w.Index()
		fresh := NewFusedWriter()
		var live []*FusedSlot
		for pos := 0; pos < v.Slots(); pos++ {
			if s := v.Slot(pos); s != nil {
				fresh.Set(fresh.Index().Free(), s.dict, s.ix)
				live = append(live, s)
			}
		}
		ref := fresh.Index()
		if !slices.Equal(dictGrams(v), dictGrams(ref)) || v.dictBytes != ref.dictBytes {
			t.Fatalf("op %d: compacted dictionary (%d grams) differs from a fresh build's (%d)", op, v.grams, ref.grams)
		}
		if len(live) != ref.Slots() {
			t.Fatalf("op %d: %d live slots, a fresh build %d", op, len(live), ref.Slots())
		}
		for k, s := range live {
			if !slices.Equal(s.inv, ref.Slot(k).inv) {
				t.Fatalf("op %d: live slot %d's inverse remap differs from a fresh build's", op, k)
			}
		}
		if st, want := v.Stats(), ref.Stats(); st.Grams != want.Grams || st.Live != want.Live || st.Tombstones != 0 {
			t.Fatalf("op %d: stats %+v, a fresh build's %+v", op, st, want)
		}
		for i, p := range probes {
			gids := v.GlobalIDs(p.grams)
			if !slices.Equal(gids, ref.GlobalIDs(p.grams)) {
				t.Fatalf("op %d probe %d: global IDs differ from a fresh build's", op, i)
			}
			src := GlobalVector(gids, p.counts, p.norm)
			got := make([]float64, v.Slots())
			want := make([]float64, ref.Slots())
			v.Bounds(src, got)
			ref.Bounds(src, want)
			var gs, ws LocalVectorScratch
			k := 0
			for pos, b := range got {
				s := v.Slot(pos)
				if s == nil {
					continue
				}
				if math.Float64bits(b) != math.Float64bits(want[k]) {
					t.Fatalf("op %d probe %d pos %d: bound %v, a fresh build's %v", op, i, pos, b, want[k])
				}
				gv, wv := s.LocalVector(src, &gs), ref.Slot(k).LocalVector(src, &ws)
				if !slices.Equal(gv.IDs, wv.IDs) || !slices.Equal(gv.Counts, wv.Counts) || gv.Norm() != wv.Norm() {
					t.Fatalf("op %d probe %d pos %d: local vector differs from a fresh build's", op, i, pos)
				}
				k++
			}
		}
	}
	if compared < 3 {
		t.Fatalf("trace compacted the dictionary %d times, want at least 3", compared)
	}
}

// TestFusedHalfDeadCompaction pins the half-dead rule: removals leave
// the grams only departed catalogs held in the dictionary while at
// least half of it is held, and the removal that leaves more than half
// held by no catalog compacts it to the live grams, every slot keeping
// its position.
func TestFusedHalfDeadCompaction(t *testing.T) {
	pool := []fusedFixture{
		wordFixture([]string{"abcde"}),
		wordFixture([]string{"fghij"}),
		wordFixture([]string{"klmno"}),
		wordFixture([]string{"pqrst"}),
	}
	n := pool[0].dict.Len()
	w := NewFusedWriter()
	for _, fx := range pool {
		if fx.dict.Len() != n {
			t.Fatalf("fixtures hold %d and %d grams, want equal counts", n, fx.dict.Len())
		}
		w.Set(w.Index().Free(), fx.dict, fx.ix)
	}
	dict := w.dict
	for _, pos := range []int{1, 3} {
		w.Set(pos, nil, nil)
		if st := w.Index().Stats(); w.dict != dict || st.Grams != 4*n || st.Slots != 4 || st.Tombstones != 0 {
			t.Fatalf("removal at %d left at least half the grams held but compacted: %+v", pos, st)
		}
	}
	w.Set(0, nil, nil)
	v := w.Index()
	if st := v.Stats(); w.dict == dict || st.Grams != n || st.Slots != 4 || st.Live != 1 || st.Tombstones != 0 {
		t.Fatalf("removal leaving three quarters of the grams dead did not compact: %+v", st)
	}
	if v.Slot(2) == nil || v.Slot(2).dict != pool[2].dict || v.Free() != 0 {
		t.Fatal("the surviving catalog did not keep its position")
	}
	for k, id := range v.GlobalIDs(pool[2].dict.grams) {
		if int(id) != k {
			t.Fatalf("compacted gram %q has global ID %d, want %d", pool[2].dict.grams[k], id, k)
		}
	}
}

// TestFusedVersionImmutable: a published version reads the same, bit
// for bit, however many versions are derived after it — installs,
// re-installs, removals and a dictionary rebuild — and while they are
// being derived (a reader runs alongside the writer, so -race checks
// the shared dictionary too).
func TestFusedVersionImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pool := makeFusedFixtures(rng, 8)
	probes := makeProbes(rng, pool, 8)
	w := NewFusedWriter()
	for _, fx := range pool[:5] {
		w.Set(w.Index().Free(), fx.dict, fx.ix)
	}
	v := w.Index()
	want := make([][]uint64, len(probes))
	for i, p := range probes {
		want[i] = fingerprint(v, p)
	}
	check := func() error {
		for i, p := range probes {
			if !slices.Equal(fingerprint(v, p), want[i]) {
				return fmt.Errorf("probe %d: the captured version reads differently", i)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := check(); err != nil {
				errs <- err
				return
			}
		}
	}()
	dict := w.dict
	w.Set(w.Index().Free(), pool[5].dict, pool[5].ix) // install
	w.Set(0, pool[6].dict, pool[6].ix)                // re-install, new grams
	w.Set(1, pool[1].dict, pool[1].ix)                // re-install, same catalog
	for _, pos := range []int{2, 3, 5} {              // removals, then a rebuild
		w.Set(pos, nil, nil)
	}
	w.Set(w.Index().Free(), pool[7].dict, pool[7].ix)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	if w.dict == dict || w.Index().Slot(4) == v.Slot(4) {
		t.Fatal("the trace never rebuilt the dictionary under a slot the captured version holds")
	}
}

// TestFusedRebuildTrigger pins when the dictionary is rebuilt: not on a
// replacement that interns no gram, however many grams it leaves held
// by no catalog, but on the next install that interns one — and the
// rebuilt dictionary holds only live grams.
func TestFusedRebuildTrigger(t *testing.T) {
	var many []string
	for i := 0; i < 40; i++ {
		many = append(many, fmt.Sprintf("alpha%03d", i))
	}
	big := wordFixture(many)
	small := wordFixture(many[:2])
	other := wordFixture([]string{"omega", "sigma"})

	w := NewFusedWriter()
	w.Set(0, big.dict, big.ix)
	dict, grams := w.dict, w.Index().Stats().Grams
	for i := 0; i < 3; i++ {
		w.Set(0, small.dict, small.ix) // most grams die, none is interned
		if w.dict != dict || w.Index().Stats().Grams != grams {
			t.Fatalf("replacement %d interning no gram rebuilt the dictionary", i)
		}
	}
	if 2*w.held >= grams {
		t.Fatalf("%d of %d grams held: the replacement should have left most dead", w.held, grams)
	}
	w.Set(1, other.dict, other.ix)
	if w.dict == dict {
		t.Fatal("an install interning grams over a mostly dead dictionary did not rebuild it")
	}
	if got, want := w.Index().Stats().Grams, small.dict.Len()+other.dict.Len(); got != want {
		t.Fatalf("rebuilt dictionary holds %d grams, want the %d live ones", got, want)
	}
}
