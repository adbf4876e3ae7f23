package tokenize

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestFoldFastPathReturnsInput(t *testing.T) {
	for _, s := range []string{"", "abc", "a b c", "42 items", "x-y_z!"} {
		if got := Fold(s); got != s {
			t.Errorf("Fold(%q) = %q, want unchanged", s, got)
		}
	}
	// The fast path must not fire for anything Fold would rewrite.
	for in, want := range map[string]string{
		" a":      "a",
		"a ":      "a",
		"a  b":    "a b",
		"a\tb":    "a b",
		"A":       "a",
		"naïve":   "naïve",
		"ünïcode": "ünïcode",
		"a b":     "a b", // non-breaking space is unicode whitespace
	} {
		if got := Fold(in); got != want {
			t.Errorf("Fold(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFoldFastPathAgreesWithSlowPath(t *testing.T) {
	f := func(s string) bool {
		// Fold must be idempotent, and the fast path is exactly the
		// idempotent case: folding a folded string returns it unchanged.
		once := Fold(s)
		return Fold(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFoldFoldedInputAllocsNothing(t *testing.T) {
	s := "already folded ascii 123"
	if n := testing.AllocsPerRun(100, func() {
		if Fold(s) != s {
			t.Fatal("fold changed folded input")
		}
	}); n != 0 {
		t.Errorf("Fold on folded input allocated %v times/op, want 0", n)
	}
}

func TestGramSeqMatchesQGrams(t *testing.T) {
	f := func(s string, qRaw uint8) bool {
		q := int(qRaw%10) + 1 // exercises both the ring and the q>8 fallback
		want := QGrams(s, q)
		var got []string
		for g := range GramSeq(s, q) {
			got = append(got, g)
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGramSeqEarlyStop(t *testing.T) {
	var got []string
	for g := range TrigramSeq("abcdef") {
		got = append(got, g)
		if len(got) == 2 {
			break
		}
	}
	if !slices.Equal(got, []string{"abc", "bcd"}) {
		t.Errorf("early-stopped grams = %v", got)
	}
}

func TestGramSeqFoldedInputAllocsNothing(t *testing.T) {
	s := "zero allocation trigram iteration"
	if n := testing.AllocsPerRun(100, func() {
		c := 0
		for range TrigramSeq(s) {
			c++
		}
		if c == 0 {
			t.Fatal("no grams")
		}
	}); n != 0 {
		t.Errorf("TrigramSeq on folded input allocated %v times/op, want 0", n)
	}
}

func TestDictInternLookupFreeze(t *testing.T) {
	d := NewDict()
	a := d.Intern("abc")
	b := d.Intern("bcd")
	if a == b {
		t.Fatal("distinct grams share an ID")
	}
	if got := d.Intern("abc"); got != a {
		t.Errorf("re-intern = %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if d.Gram(a) != "abc" || d.Gram(b) != "bcd" {
		t.Error("Gram round-trip failed")
	}
	d.Freeze()
	if !d.Frozen() {
		t.Error("Frozen() = false after Freeze")
	}
	if id, ok := d.Lookup("abc"); !ok || id != a {
		t.Errorf("Lookup(abc) = %d,%v", id, ok)
	}
	if id, ok := d.Lookup("zzz"); ok || id != NoID {
		t.Errorf("Lookup(zzz) = %d,%v, want NoID,false", id, ok)
	}
	if d.Bytes() <= 0 {
		t.Error("Bytes should be positive for a non-empty dict")
	}
	defer func() {
		if recover() == nil {
			t.Error("Intern of a new gram on a frozen dict should panic")
		}
	}()
	d.Intern("new")
}

func TestDictTrigramIDs(t *testing.T) {
	d := NewDict()
	for _, g := range Trigrams("abcd") { // abc, bcd
		d.Intern(g)
	}
	d.Freeze()
	var got []uint32
	for id := range d.TrigramIDs("abcde") { // abc bcd cde
		got = append(got, id)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != NoID {
		t.Errorf("TrigramIDs = %v", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		for range d.TrigramIDs("abcde") {
		}
	}); n != 0 {
		t.Errorf("TrigramIDs allocated %v times/op, want 0", n)
	}
}

func TestVectorBuilderAndCosine(t *testing.T) {
	d := NewDict()
	b := NewVectorBuilder()
	b.AddTrigrams(d, "abcd") // abc bcd
	b.AddTrigrams(d, "abcd")
	v := b.Build()
	if v.NNZ() != 2 || v.Mass() != 4 {
		t.Fatalf("vector nnz=%d mass=%v", v.NNZ(), v.Mass())
	}
	if want := math.Sqrt(8); math.Abs(v.Norm()-want) > 1e-12 {
		t.Errorf("Norm = %v, want %v", v.Norm(), want)
	}
	if !slices.IsSorted(v.IDs) {
		t.Error("IDs not sorted")
	}
	// The builder resets: a second build sees none of the first's mass.
	b.AddTrigrams(d, "abcd")
	v2 := b.Build()
	if v2.Mass() != 2 {
		t.Errorf("builder leaked state: mass = %v", v2.Mass())
	}
	if got := CosineIDs(v, v2); math.Abs(got-1) > 1e-12 {
		t.Errorf("parallel vectors cosine = %v, want 1", got)
	}
	if got := CosineIDs(v, emptyIDVector); got != 0 {
		t.Errorf("empty cosine = %v, want 0", got)
	}
}

// TestCosineIDsAgreesWithMapReference cross-checks the sorted-slice
// cosine and Jaccard against straightforward map-keyed reference
// implementations on random token multisets.
func TestCosineIDsAgreesWithMapReference(t *testing.T) {
	refCosine := func(a, b map[string]float64) float64 {
		if len(a) == 0 || len(b) == 0 {
			return 0
		}
		var dot, na, nb float64
		for g, x := range a {
			dot += x * b[g]
			na += x * x
		}
		for _, y := range b {
			nb += y * y
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb))
	}
	refJaccard := func(a, b map[string]float64) float64 {
		if len(a) == 0 && len(b) == 0 {
			return 0
		}
		inter := 0
		for g := range a {
			if _, ok := b[g]; ok {
				inter++
			}
		}
		return float64(inter) / float64(len(a)+len(b)-inter)
	}
	f := func(xs, ys []byte) bool {
		d := NewDict()
		ba, bb := NewVectorBuilder(), NewVectorBuilder()
		va, vb := map[string]float64{}, map[string]float64{}
		for _, x := range xs {
			g := string([]byte{'a' + x%16})
			ba.AddGram(d, g)
			va[g]++
		}
		for _, y := range ys {
			g := string([]byte{'a' + y%16})
			bb.AddGram(d, g)
			vb[g]++
		}
		A, B := ba.Build(), bb.Build()
		if got, want := CosineIDs(A, B), refCosine(va, vb); math.Abs(got-want) > 1e-12 {
			t.Logf("cosine %v vs %v", got, want)
			return false
		}
		return math.Abs(JaccardIDs(A, B)-refJaccard(va, vb)) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCosineIDsSkewedGallop forces the binary-search path (one side much
// larger than the other) and checks it agrees with the merge walk.
func TestCosineIDsSkewedGallop(t *testing.T) {
	big := NewVectorBuilder()
	for i := uint32(0); i < 1000; i++ {
		big.counts[i]++
	}
	bigV := big.Build()
	small := NewVectorBuilder()
	small.counts[10]++
	small.counts[999]++
	smallV := small.Build()
	got := CosineIDs(smallV, bigV)
	want := 2 / (smallV.Norm() * bigV.Norm())
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("skewed cosine = %v, want %v", got, want)
	}
	if l, r := CosineIDs(smallV, bigV), CosineIDs(bigV, smallV); l != r {
		t.Errorf("cosine asymmetric: %v vs %v", l, r)
	}
}

// TestOverflowGramsOnFrozenDict pins the overflow contract: grams
// unknown to a frozen dict get per-build IDs above the dict range, so
// they contribute to norms but can never intersect real IDs.
func TestOverflowGramsOnFrozenDict(t *testing.T) {
	d := NewDict()
	d.Intern("abc")
	d.Freeze()
	b := NewVectorBuilder()
	b.AddTrigrams(d, "abc")
	b.AddTrigrams(d, "xyz") // unknown to the frozen dict
	v := b.Build()
	if v.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", v.NNZ())
	}
	if v.IDs[0] != 0 || v.IDs[1] < uint32(d.Len()) {
		t.Errorf("overflow ID %v should sit above the dict range", v.IDs)
	}
	tgt := NewVectorBuilder()
	tgt.AddTrigrams(d, "abc")
	// The overflow gram must not match anything in a dict-only vector.
	if got := CosineIDs(v, tgt.Build()); math.Abs(got-1/math.Sqrt2) > 1e-12 {
		t.Errorf("cosine with overflow = %v, want %v", got, 1/math.Sqrt2)
	}
}

func BenchmarkFoldFoldedASCII(b *testing.B) {
	s := "inventory widget model 42 blue"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Fold(s) != s {
			b.Fatal("fold changed input")
		}
	}
}

func BenchmarkTrigramSeq(b *testing.B) {
	s := "inventory widget model 42 blue"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for range TrigramSeq(s) {
			n++
		}
		if n == 0 {
			b.Fatal("no grams")
		}
	}
}

func BenchmarkTrigramsMaterialized(b *testing.B) {
	s := "inventory widget model 42 blue"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(Trigrams(s)) == 0 {
			b.Fatal("no grams")
		}
	}
}

func BenchmarkCosineIDs(b *testing.B) {
	d := NewDict()
	ba, bb := NewVectorBuilder(), NewVectorBuilder()
	for i := 0; i < 200; i++ {
		ba.AddTrigrams(d, "widget model alpha")
		ba.counts[uint32(i*3)]++
		bb.AddTrigrams(d, "widget model beta")
		bb.counts[uint32(i*2)]++
	}
	va, vb := ba.Build(), bb.Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if CosineIDs(va, vb) <= 0 {
			b.Fatal("no overlap")
		}
	}
}

// TestDictNextIDBoundary: IDs stay dense up to the uint32 sentinel, and
// growth onto the NoID sentinel itself must panic rather than alias the
// unknown-gram marker (which would silently corrupt frozen classifiers'
// out-of-vocabulary routing). The guard is table-driven over the
// boundary; the full 4-billion-gram dictionary itself is not
// constructible in a test.
func TestDictNextIDBoundary(t *testing.T) {
	cases := []struct {
		n      int
		want   uint32
		panics bool
	}{
		{0, 0, false},
		{1, 1, false},
		{1 << 20, 1 << 20, false},
		{int(NoID) - 1, NoID - 1, false},
		{int(NoID), 0, true},
		{int(NoID) + 1, 0, true},
	}
	for _, tc := range cases {
		got, panicked := func() (id uint32, panicked bool) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			return nextID(tc.n), false
		}()
		if panicked != tc.panics {
			t.Errorf("nextID(%d): panicked = %v, want %v", tc.n, panicked, tc.panics)
			continue
		}
		if !tc.panics && got != tc.want {
			t.Errorf("nextID(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	if uint32(int(NoID)-1) == NoID {
		t.Fatal("largest assignable ID collides with NoID")
	}
}

// TestDictMergeIntoIdempotent: merging a shard twice (or a shard whose
// grams the global dictionary already holds) must reuse the existing
// IDs, never mint fresh ones.
func TestDictMergeIntoIdempotent(t *testing.T) {
	local := NewDict()
	for _, g := range []string{"abc", "bcd", "cde"} {
		local.Intern(g)
	}
	global := NewDict()
	first := local.MergeInto(global)
	second := local.MergeInto(global)
	if global.Len() != 3 {
		t.Fatalf("global grew to %d after double merge, want 3", global.Len())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("remap[%d] changed between merges: %d vs %d", i, first[i], second[i])
		}
	}
}
