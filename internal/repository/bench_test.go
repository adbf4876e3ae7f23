package repository

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/match"
)

// benchModes are the two ways the fleet benchmarks answer one query:
// top-k retrieval plus k exact matches, and the exhaustive reference
// (matchEvery) that exact-matches every catalog.
var benchModes = []struct {
	name string
	run  func(tb testing.TB, f *Fleet, src *ctxmatch.Schema) *Report
}{
	{"retrieval", func(tb testing.TB, f *Fleet, src *ctxmatch.Schema) *Report {
		rep, err := f.MatchAny(context.Background(), src, Query{K: 3})
		if err != nil {
			tb.Fatal(err)
		}
		return rep
	}},
	{"exhaustive", matchEvery},
}

// BenchmarkMatchAny measures the subsystem's reason to exist: answering
// "which catalog matches this source?" over the eight-catalog fleet
// (including the 10k-row fixture) via top-k retrieval plus k exact
// matches, against the exhaustive reference that matches every catalog.
func BenchmarkMatchAny(b *testing.B) {
	if testing.Short() {
		b.Skip("fleet fixture skipped in -short mode")
	}
	benchFleetModes(b, newTestFleet(b, 1))
}

// benchFleetModes times each of benchModes answering aaron-1's source
// over f, and reports beside the clock the fraction of catalogs the
// mode pruned, so a run records the pruning efficacy with the cost.
func benchFleetModes(b *testing.B, f *Fleet) {
	src := sharedFleet(b).datasets["aaron-1"].Source
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var prunedFrac float64
			for i := 0; i < b.N; i++ {
				rep := mode.run(b, f, src)
				if rep.Best() == nil {
					b.Fatal("no winner")
				}
				if rep.Considered > 0 {
					prunedFrac = float64(rep.Pruned) / float64(rep.Considered)
				}
			}
			b.ReportMetric(prunedFrac, "pruned-frac")
		})
	}
}

// fleet32Extra holds the 24 additional catalogs that, together with the
// eight shared ones, make up the 32-catalog benchmark fleet — small but
// genuinely distinct (three layouts, rotating seeds), prepared once per
// test binary.
var (
	fleet32Once  sync.Once
	fleet32Extra []*ctxmatch.Target
	fleet32Err   error
)

// newTestFleet32 installs the eight shared catalogs plus 24 extras: the
// registry-at-capacity regime the fused index exists for, where one
// source fans out over 32 candidate catalogs.
func newTestFleet32(t testing.TB, workers int) *Fleet {
	fx := sharedFleet(t)
	fleet32Once.Do(func() {
		m, err := ctxmatch.New(ctxmatch.WithSeed(5))
		if err != nil {
			fleet32Err = err
			return
		}
		layouts := []datagen.TargetSchema{datagen.Aaron, datagen.Barrett, datagen.Ryan}
		for i := 0; i < 24; i++ {
			ds := datagen.Inventory(datagen.InventoryConfig{
				Rows: 80, TargetRows: 60, Gamma: 4,
				Target: layouts[i%len(layouts)], Seed: int64(100 + i),
			})
			tgt, err := m.Prepare(context.Background(), ds.Target)
			if err != nil {
				fleet32Err = fmt.Errorf("prepare extra-%02d: %w", i, err)
				return
			}
			fleet32Extra = append(fleet32Extra, tgt)
		}
	})
	if fleet32Err != nil {
		t.Fatalf("32-catalog fleet fixture: %v", fleet32Err)
	}
	f := NewFleet()
	gen := 0
	for _, spec := range fleetSpecs {
		gen++
		f.Installed(spec.name, gen, fx.targets[spec.name].WithParallelism(workers))
	}
	for i, tgt := range fleet32Extra {
		gen++
		f.Installed(fmt.Sprintf("extra-%02d", i), gen, tgt.WithParallelism(workers))
	}
	return f
}

// BenchmarkMatchAny32 is BenchmarkMatchAny at registry scale: the same
// query over a 32-catalog fleet, where the fused bound pass prunes most
// of the fleet without touching per-catalog postings.
func BenchmarkMatchAny32(b *testing.B) {
	if testing.Short() {
		b.Skip("fleet fixture skipped in -short mode")
	}
	benchFleetModes(b, newTestFleet32(b, 1))
}

// BenchmarkFleetInstall measures the fleet's half of a PATCH: each
// iteration re-installs one catalog of the 32-catalog fleet under a
// fresh generation — deriving and publishing the next fused index
// version, with any dictionary rebuild it triggers — for a small
// catalog and for the 10k-row one.
func BenchmarkFleetInstall(b *testing.B) {
	if testing.Short() {
		b.Skip("fleet fixture skipped in -short mode")
	}
	fx := sharedFleet(b)
	for _, name := range []string{"aaron-1", "ryan-10k"} {
		b.Run(name, func(b *testing.B) {
			f := newTestFleet32(b, 1)
			tgt := fx.targets[name].WithParallelism(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Installed(name, 100+i, tgt)
			}
		})
	}
}

// BenchmarkRetrieve isolates the retrieval walk itself — scoring all
// eight catalogs' candidate indexes under the advancing top-k floor,
// no exact matches.
func BenchmarkRetrieve(b *testing.B) {
	if testing.Short() {
		b.Skip("fleet fixture skipped in -short mode")
	}
	f := newTestFleet(b, 1)
	entries := f.Entries()
	src := sharedFleet(b).datasets["aaron-1"].Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores := retrieve(entries, match.FeaturizeSource(src, 1), 3, 0, time.Time{})
		if len(scores) != len(entries) {
			b.Fatal("short score list")
		}
	}
}
