package tokenize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomColumns builds n column vectors over a shared building
// dictionary from random words, returning the dictionary and vectors.
// Sparsity is controlled by drawing words from a pool: columns drawing
// from disjoint pool regions share few grams.
func randomColumns(rng *rand.Rand, n, valuesPer int) (*Dict, []*IDVector) {
	d := NewDict()
	b := NewVectorBuilder()
	pool := make([]string, 120)
	for i := range pool {
		pool[i] = fmt.Sprintf("word%c%c%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), i%37)
	}
	cols := make([]*IDVector, n)
	for c := range cols {
		lo := rng.Intn(len(pool) / 2)
		hi := lo + 1 + rng.Intn(len(pool)/2)
		for v := 0; v < valuesPer; v++ {
			b.AddTrigrams(d, pool[lo+rng.Intn(hi-lo)])
		}
		cols[c] = b.Build()
	}
	return d, cols
}

// sourceVector builds one vector against the (frozen) dictionary, with
// a slice of words possibly outside the dictionary vocabulary so the
// overflow-ID path is exercised.
func sourceVector(rng *rand.Rand, d *Dict, withOverflow bool) *IDVector {
	b := NewVectorBuilder()
	for v := 0; v < 30; v++ {
		b.AddTrigrams(d, fmt.Sprintf("word%c%c%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), rng.Intn(37)))
	}
	if withOverflow {
		b.AddTrigrams(d, fmt.Sprintf("zzz-unseen-%d", rng.Intn(1000)))
	}
	return b.Build()
}

// TestIndexScoreColumnsExact: every ScoreColumns entry must be
// bit-for-bit equal to the pairwise merge-walk CosineIDs, including
// zero entries for columns sharing no gram and sources carrying
// overflow IDs.
func TestIndexScoreColumnsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		d, cols := randomColumns(rng, 3+rng.Intn(12), 5+rng.Intn(40))
		ix := BuildIndex(cols, d.Len())
		d.Freeze()
		row := make([]float64, len(cols))
		for s := 0; s < 8; s++ {
			src := sourceVector(rng, d, s%2 == 0)
			got := ix.ScoreColumns(src, row)
			nonzero := 0
			for ci, col := range cols {
				want := CosineIDs(src, col)
				if math.Float64bits(row[ci]) != math.Float64bits(want) {
					t.Fatalf("trial %d col %d: indexed %v != merge-walk %v", trial, ci, row[ci], want)
				}
				if want != 0 {
					nonzero++
				}
			}
			if got != nonzero {
				t.Fatalf("trial %d: candidates=%d, nonzero cosines=%d", trial, got, nonzero)
			}
		}
	}
}

// TestIndexScoreColumnsFloored: pruning must be conservative — any
// column whose true cosine reaches the floor is scored bit-identically
// to CosineIDs; pruned columns must truly score below the floor.
func TestIndexScoreColumnsFloored(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		d, cols := randomColumns(rng, 3+rng.Intn(12), 5+rng.Intn(40))
		ix := BuildIndex(cols, d.Len())
		d.Freeze()
		row := make([]float64, len(cols))
		for s := 0; s < 6; s++ {
			src := sourceVector(rng, d, s%3 == 0)
			floor := rng.Float64() * 0.8
			ix.ScoreColumnsFloored(src, row, floor)
			for ci, col := range cols {
				want := CosineIDs(src, col)
				switch {
				case want >= floor:
					if math.Float64bits(row[ci]) != math.Float64bits(want) {
						t.Fatalf("trial %d col %d floor %v: survivor %v != exact %v",
							trial, ci, floor, row[ci], want)
					}
				case row[ci] != 0:
					// A sub-floor column may still be scored (the bound is
					// conservative); if it is, the score must be exact.
					if math.Float64bits(row[ci]) != math.Float64bits(want) {
						t.Fatalf("trial %d col %d: scored sub-floor column inexactly: %v != %v",
							trial, ci, row[ci], want)
					}
				}
			}
		}
	}
}

// TestIndexFlooredZeroFloor: floor ≤ 0 must behave exactly like
// ScoreColumns.
func TestIndexFlooredZeroFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, cols := randomColumns(rng, 6, 20)
	ix := BuildIndex(cols, d.Len())
	d.Freeze()
	src := sourceVector(rng, d, false)
	a := make([]float64, len(cols))
	b := make([]float64, len(cols))
	na := ix.ScoreColumnsFloored(src, a, 0)
	nb := ix.ScoreColumns(src, b)
	if na != nb {
		t.Fatalf("candidate counts differ: %d vs %d", na, nb)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("col %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestIndexStats: counters must reflect retrievals and the hit rate
// must stay within [0,1].
func TestIndexStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, cols := randomColumns(rng, 8, 25)
	ix := BuildIndex(cols, d.Len())
	d.Freeze()
	if s := ix.Stats(); s.Retrievals != 0 || s.HitRate() != 0 {
		t.Fatalf("fresh index has non-zero counters: %+v", s)
	}
	row := make([]float64, len(cols))
	const runs = 5
	for i := 0; i < runs; i++ {
		ix.ScoreColumns(sourceVector(rng, d, false), row)
	}
	s := ix.Stats()
	if s.Retrievals != runs {
		t.Fatalf("retrievals = %d, want %d", s.Retrievals, runs)
	}
	if s.TotalPairs != int64(runs*len(cols)) {
		t.Fatalf("total pairs = %d, want %d", s.TotalPairs, runs*len(cols))
	}
	if hr := s.HitRate(); hr < 0 || hr > 1 {
		t.Fatalf("hit rate %v outside [0,1]", hr)
	}
	if s.Columns != len(cols) || s.Grams != d.Len() || s.Postings != ix.postings {
		t.Fatalf("size stats inconsistent: %+v", s)
	}
	if s.Bytes <= 0 {
		t.Fatalf("bytes = %d", s.Bytes)
	}
	var zero *Index
	if got := zero.Stats(); got != (IndexStats{}) {
		t.Fatalf("nil index stats = %+v", got)
	}
}

// TestDictMergeReproducesSequential: building per-shard dictionaries
// and merging them in shard order must assign exactly the IDs (and
// produce bit-identical vectors) of one sequential pass.
func TestDictMergeReproducesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	words := make([][]string, 6)
	for s := range words {
		for i := 0; i < 40; i++ {
			words[s] = append(words[s], fmt.Sprintf("w%c%d", 'a'+rng.Intn(8), rng.Intn(30)))
		}
	}

	// Sequential reference: one dict, one builder, shard order.
	seq := NewDict()
	sb := NewVectorBuilder()
	seqVecs := make([]*IDVector, len(words))
	for s, ws := range words {
		for _, w := range ws {
			sb.AddTrigrams(seq, w)
		}
		seqVecs[s] = sb.Build()
	}

	// Sharded: local dict per shard, ordered merge, vector remap.
	global := NewDict()
	mergedVecs := make([]*IDVector, len(words))
	for s, ws := range words {
		ld := NewDict()
		lb := NewVectorBuilder()
		for _, w := range ws {
			lb.AddTrigrams(ld, w)
		}
		v := lb.Build()
		remap := ld.MergeInto(global)
		mergedVecs[s] = Remapped(v, remap)
	}

	if global.Len() != seq.Len() {
		t.Fatalf("dict sizes differ: merged %d, sequential %d", global.Len(), seq.Len())
	}
	for id := 0; id < seq.Len(); id++ {
		if seq.Gram(uint32(id)) != global.Gram(uint32(id)) {
			t.Fatalf("gram %d differs: %q vs %q", id, seq.Gram(uint32(id)), global.Gram(uint32(id)))
		}
	}
	for s := range words {
		a, b := seqVecs[s], mergedVecs[s]
		if a.NNZ() != b.NNZ() || math.Float64bits(a.Norm()) != math.Float64bits(b.Norm()) {
			t.Fatalf("shard %d: vector shape/norm differ", s)
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] || math.Float64bits(a.Counts[i]) != math.Float64bits(b.Counts[i]) {
				t.Fatalf("shard %d entry %d differs: (%d,%v) vs (%d,%v)",
					s, i, a.IDs[i], a.Counts[i], b.IDs[i], b.Counts[i])
			}
		}
	}
}

// BenchmarkIndexScoreColumns contrasts indexed batch scoring of one
// source vector against every column with the per-pair merge walks it
// replaces.
func BenchmarkIndexScoreColumns(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d, cols := randomColumns(rng, 64, 200)
	ix := BuildIndex(cols, d.Len())
	d.Freeze()
	src := sourceVector(rng, d, false)
	row := make([]float64, len(cols))
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.ScoreColumns(src, row)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for ci, col := range cols {
				row[ci] = CosineIDs(src, col)
			}
		}
	})
}

// BenchmarkScoreColumnsFloored contrasts the WAND-pruned floored
// scorer against the unfloored full scorer — the fleet retrieval
// path's primitive. The floored variant pays a per-call bound sort and
// exact merge walks for the surviving candidates, so on a single small
// index the unfloored accumulate wins; its value is the pruning
// *proof* (a zero plus a sub-floor bound lets retrieval skip an entire
// catalog's exact match), and this benchmark records the price of that
// proof at increasing floors so the crossover stays measured rather
// than assumed.
func BenchmarkScoreColumnsFloored(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d, cols := randomColumns(rng, 512, 300)
	ix := BuildIndex(cols, d.Len())
	d.Freeze()
	src := sourceVector(rng, d, false)
	row := make([]float64, len(cols))
	b.Run("unfloored", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.ScoreColumns(src, row)
		}
	})
	for _, floor := range []float64{0.1, 0.3, 0.6} {
		b.Run(fmt.Sprintf("floor=%.1f", floor), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.ScoreColumnsFloored(src, row, floor)
			}
		})
	}
}
