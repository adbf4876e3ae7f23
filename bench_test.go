package ctxmatch_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/core"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/experiments"
	"ctxmatch/internal/match"
)

// The paper's evaluation section contains no numbered tables; every
// result is a figure (8-22). One benchmark per figure regenerates that
// figure's data at reduced scale per iteration, so `go test -bench .`
// both times the pipeline and re-derives every series. Full-scale
// regeneration is `go run ./cmd/experiments`; the README's "Paper vs
// this repo" table records every quality figure at QuickConfig.

func benchFigure(b *testing.B, id string) {
	// Smaller than experiments.QuickConfig: a figure regeneration is one
	// benchmark iteration, and the heavy sweeps (fig15-17) must stay
	// within seconds per iteration.
	cfg := experiments.Config{Rows: 120, TargetRows: 60, Students: 60, Repeats: 1, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := experiments.Registry[id](cfg)
		if len(f.Points) == 0 {
			b.Fatalf("%s produced no points", id)
		}
	}
}

// BenchmarkFig08 regenerates Figure 8 (ω sweep, target Aaron).
func BenchmarkFig08(b *testing.B) { benchFigure(b, "fig08") }

// BenchmarkFig09 regenerates Figure 9 (ω sweep, target Barrett).
func BenchmarkFig09(b *testing.B) { benchFigure(b, "fig09") }

// BenchmarkFig10 regenerates Figure 10 (ω sweep, target Ryan).
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (strawman QualTable/MultiTable).
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (ρ sweep, EarlyDisjuncts).
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (ρ sweep, LateDisjuncts).
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14 (γ sweep, LateDisjuncts).
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15 (Early/Late runtime ratio vs γ).
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16 (FMeasure vs schema size).
func BenchmarkFig16(b *testing.B) { benchFigure(b, "fig16") }

// BenchmarkFig17 regenerates Figure 17 (runtime vs schema size).
func BenchmarkFig17(b *testing.B) { benchFigure(b, "fig17") }

// BenchmarkFig18 regenerates Figure 18 (FMeasure vs sample size).
func BenchmarkFig18(b *testing.B) { benchFigure(b, "fig18") }

// BenchmarkFig19 regenerates Figure 19 (Grades accuracy vs σ).
func BenchmarkFig19(b *testing.B) { benchFigure(b, "fig19") }

// BenchmarkFig20 regenerates Figure 20 (Inventory accuracy vs τ).
func BenchmarkFig20(b *testing.B) { benchFigure(b, "fig20") }

// BenchmarkFig21 regenerates Figure 21 (Grades accuracy vs τ).
func BenchmarkFig21(b *testing.B) { benchFigure(b, "fig21") }

// BenchmarkFig22 regenerates Figure 22 (Inventory runtime vs τ).
func BenchmarkFig22(b *testing.B) { benchFigure(b, "fig22") }

// BenchmarkContextMatch times one end-to-end contextual matching run on
// the default Retail configuration for each inference algorithm. A
// fresh Matcher per iteration keeps the per-run target-side work
// (classifier training, feature scans) inside the measurement, so the
// three algorithms stay comparable; steady-state cached cost is what
// BenchmarkMatchParallel measures.
func BenchmarkContextMatch(b *testing.B) {
	for _, inf := range []core.Inference{core.NaiveInfer, core.SrcClassInfer, core.TgtClassInfer} {
		b.Run(inf.String(), func(b *testing.B) {
			ds := datagen.Inventory(datagen.InventoryConfig{
				Rows: 300, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: 1,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matcher, err := ctxmatch.New(
					ctxmatch.WithInference(inf),
					ctxmatch.WithParallelism(1),
				)
				if err != nil {
					b.Fatal(err)
				}
				res, err := matcher.Match(context.Background(), ds.Source, ds.Target)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Matches) == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkMatchParallel contrasts sequential matching with the bounded
// worker pool on a multi-table inventory workload (9 source tables).
// Besides the timing, each parallel iteration's matches are checked
// byte-identical to the sequential baseline — the determinism guarantee
// WithParallelism documents.
func BenchmarkMatchParallel(b *testing.B) {
	source, target := multiInventory(b, 3)
	baselineMatcher, err := ctxmatch.New(ctxmatch.WithParallelism(1))
	if err != nil {
		b.Fatal(err)
	}
	baselineRes, err := baselineMatcher.Match(context.Background(), source, target)
	if err != nil {
		b.Fatal(err)
	}
	baseline := renderMatches(baselineRes)
	if baseline == "" {
		b.Fatal("no matches in the baseline run")
	}
	levels := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		levels = append(levels, n)
	} else {
		// Still exercise the worker-pool code path (and its determinism
		// check) on a single-CPU box, where no speedup is possible.
		levels = append(levels, 2)
	}
	for _, workers := range levels {
		b.Run(fmt.Sprintf("parallelism=%d", workers), func(b *testing.B) {
			matcher, err := ctxmatch.New(ctxmatch.WithParallelism(workers))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := matcher.Match(context.Background(), source, target)
				if err != nil {
					b.Fatal(err)
				}
				if got := renderMatches(res); got != baseline {
					b.Fatalf("parallelism %d diverged from sequential matches", workers)
				}
			}
		})
	}
}

// BenchmarkPreparedMatch contrasts the prepared-target session path
// with a cold Matcher on the inventory fixture. "cold" pays the full
// target-side bill every iteration — classifier training plus catalog
// column scans — exactly as a fresh Matcher per request would; and
// "prepared" matches through a handle pinned once outside the timer,
// the steady-state cost of a catalog-serving session.
func BenchmarkPreparedMatch(b *testing.B) {
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 120, TargetRows: 1500, Gamma: 4, Target: datagen.Ryan, Seed: 1,
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matcher, err := ctxmatch.New(ctxmatch.WithParallelism(1))
			if err != nil {
				b.Fatal(err)
			}
			res, err := matcher.Match(context.Background(), ds.Source, ds.Target)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Matches) == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		matcher, err := ctxmatch.New(ctxmatch.WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		prepared, err := matcher.Prepare(context.Background(), ds.Target)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := prepared.Match(context.Background(), ds.Source)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Matches) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkPreparedMatch10k is the enterprise-scale fixture: a
// 10,000-row, 20-table target catalog (datagen Scale=10), where the
// catalog is wide enough that all-pairs cosine scoring visibly
// degrades while the inverted gram-ID candidate index does not. The
// two sub-benchmarks share the fixture and differ only in the n-gram
// matcher: "indexed" is the default engine, "exhaustive" the
// test-only pairwise oracle (pairwiseEngine). Their results are
// byte-identical (see TestIndexedScoringMatchesExhaustive), so the
// ratio is pure speedup.
func BenchmarkPreparedMatch10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-catalog fixture skipped in -short mode (CI runs it in a dedicated profiled step)")
	}
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 120, TargetRows: 500, Gamma: 4, Target: datagen.Ryan, Seed: 1,
		Scale: 10, ExtraAttrs: 4, NoDistractors: true,
	})
	for _, exhaustive := range []bool{false, true} {
		name, eng := "indexed", match.NewEngine()
		if exhaustive {
			name, eng = "exhaustive", pairwiseEngine()
		}
		b.Run(name, func(b *testing.B) {
			matcher, err := ctxmatch.New(ctxmatch.WithEngine(eng), ctxmatch.WithParallelism(1))
			if err != nil {
				b.Fatal(err)
			}
			prepared, err := matcher.Prepare(context.Background(), ds.Target)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prepared.Match(context.Background(), ds.Source)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Matches) == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkPrepare10k contrasts sequential and parallel PrepareTarget
// on the 10k-row catalog: per-column feature extraction with the
// deterministic dictionary merge, then the target classifiers compiled
// from the column vectors. A fresh Matcher per iteration keeps the
// artifact cache cold, so every iteration pays the full preparation
// bill.
func BenchmarkPrepare10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-catalog fixture skipped in -short mode (CI runs it in a dedicated profiled step)")
	}
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 120, TargetRows: 500, Gamma: 4, Target: datagen.Ryan, Seed: 1,
		Scale: 10, ExtraAttrs: 4, NoDistractors: true,
	})
	levels := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		levels = append(levels, n)
	}
	for _, workers := range levels {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matcher, err := ctxmatch.New(ctxmatch.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := matcher.Prepare(context.Background(), ds.Target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// prepared10k prepares the 10k-row catalog BenchmarkPrepare10k builds,
// sequentially, and returns it with its snapshot.
func prepared10k(b *testing.B) (*ctxmatch.Target, []byte) {
	b.Helper()
	if testing.Short() {
		b.Skip("10k-catalog fixture skipped in -short mode (CI runs it in a dedicated profiled step)")
	}
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 120, TargetRows: 500, Gamma: 4, Target: datagen.Ryan, Seed: 1,
		Scale: 10, ExtraAttrs: 4, NoDistractors: true,
	})
	matcher, err := ctxmatch.New(ctxmatch.WithParallelism(1))
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := matcher.Prepare(context.Background(), ds.Target)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prepared.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return prepared, buf.Bytes()
}

// BenchmarkSnapshotLoad times restoring the same 10k-row catalog
// BenchmarkPrepare10k builds — the warm-restart path — from an
// in-memory snapshot and from a file, the daemon's restore. The
// contrast with preparing is the snapshot subsystem's reason to exist:
// loading reconstructs the dictionary, vectors and index by reference
// to one contiguous buffer instead of re-scanning columns, and compiles
// the target classifiers from those vectors.
func BenchmarkSnapshotLoad(b *testing.B) {
	_, snap := prepared10k(b)
	b.Run("memory", func(b *testing.B) {
		b.SetBytes(int64(len(snap)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctxmatch.LoadTarget(bytes.NewReader(snap)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("file", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "catalog.snap")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(snap)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			_, err = ctxmatch.LoadTarget(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotWrite10k times serializing the 10k-row catalog into
// io.Discard: the encoder alone, which a daemon pays on every persist
// of a changed catalog.
func BenchmarkSnapshotWrite10k(b *testing.B) {
	prepared, snap := prepared10k(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepared.WriteSnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStandardMatch times the base matcher alone at several sample
// sizes.
func BenchmarkStandardMatch(b *testing.B) {
	for _, rows := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			ds := datagen.Inventory(datagen.InventoryConfig{
				Rows: rows, TargetRows: rows / 2, Gamma: 4, Target: datagen.Ryan, Seed: 1,
			})
			src := ds.Source.Table("Inventory")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ms := ctxmatch.StandardMatch(src, ds.Target, 0.5); len(ms) == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkMappingExecute times building and executing the grades
// attribute-normalization mapping.
func BenchmarkMappingExecute(b *testing.B) {
	ds := datagen.Grades(datagen.GradesConfig{Students: 200, Exams: 5, Sigma: 6, Seed: 1})
	matcher, err := ctxmatch.New(
		ctxmatch.WithEarlyDisjuncts(false),
		ctxmatch.WithTau(0.4),
	)
	if err != nil {
		b.Fatal(err)
	}
	res, err := matcher.Match(context.Background(), ds.Source, ds.Target)
	if err != nil {
		b.Fatal(err)
	}
	ctxMatches := res.ContextualMatches()
	if len(ctxMatches) == 0 {
		b.Fatal("no contextual matches to map")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maps, err := ctxmatch.BuildMappings(ctxMatches, ds.Source, ds.Target)
		if err != nil {
			b.Fatal(err)
		}
		if len(maps) == 0 || maps[0].Execute().Len() == 0 {
			b.Fatal("mapping failed")
		}
	}
}

// BenchmarkAblationEvidenceGate contrasts the default engine with the
// pure §2.3 normalization (EvidenceScale=0): the DESIGN.md §5 ablation.
// The benchmark reports FMeasure via b.ReportMetric so the quality
// impact is visible next to the timing.
func BenchmarkAblationEvidenceGate(b *testing.B) {
	for _, gate := range []bool{true, false} {
		name := "gated"
		if !gate {
			name = "pure-normalization"
		}
		b.Run(name, func(b *testing.B) {
			ds := datagen.Inventory(datagen.InventoryConfig{
				Rows: 300, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: 1,
			})
			eng := match.NewEngine()
			if !gate {
				eng.EvidenceScale = 0
			}
			matcher, err := ctxmatch.New(
				ctxmatch.WithEngine(eng),
				ctxmatch.WithParallelism(1),
			)
			if err != nil {
				b.Fatal(err)
			}
			var f float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := matcher.Match(context.Background(), ds.Source, ds.Target)
				if err != nil {
					b.Fatal(err)
				}
				f = ds.FMeasureEdges(res.Matches)
			}
			b.ReportMetric(f, "FMeasure")
		})
	}
}

// BenchmarkAblationSignificance contrasts the ClusteredViewGen
// significance filter (T=0.95) with accepting every family (T=0): the
// filter is what keeps random categorical attributes from flooding the
// candidate set.
func BenchmarkAblationSignificance(b *testing.B) {
	for _, threshold := range []float64{0.95, 0} {
		b.Run(fmt.Sprintf("T=%v", threshold), func(b *testing.B) {
			ds := datagen.Inventory(datagen.InventoryConfig{
				Rows: 300, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: 1,
			})
			matcher, err := ctxmatch.New(
				ctxmatch.WithInference(ctxmatch.SrcClassInfer),
				ctxmatch.WithSignificanceT(threshold),
				ctxmatch.WithParallelism(1),
			)
			if err != nil {
				b.Fatal(err)
			}
			var f float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := matcher.Match(context.Background(), ds.Source, ds.Target)
				if err != nil {
					b.Fatal(err)
				}
				f = ds.FMeasureEdges(res.Matches)
			}
			b.ReportMetric(f, "FMeasure")
		})
	}
}

// BenchmarkAblationDisjunctPolicy contrasts EarlyDisjuncts and
// LateDisjuncts end to end at γ=6, the design choice §3.3 and §5.9
// discuss.
func BenchmarkAblationDisjunctPolicy(b *testing.B) {
	for _, early := range []bool{true, false} {
		name := "early"
		if !early {
			name = "late"
		}
		b.Run(name, func(b *testing.B) {
			ds := datagen.Inventory(datagen.InventoryConfig{
				Rows: 300, TargetRows: 150, Gamma: 6, Target: datagen.Ryan, Seed: 1,
			})
			matcher, err := ctxmatch.New(
				ctxmatch.WithInference(ctxmatch.SrcClassInfer),
				ctxmatch.WithEarlyDisjuncts(early),
				ctxmatch.WithParallelism(1),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matcher.Match(context.Background(), ds.Source, ds.Target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdate10k measures incremental prepare on the same
// enterprise-scale fixture: a single-table delta applied through
// Target.Update on the prepared handle ("update") and on a handle
// restored from its snapshot ("update-restored", the first PATCH after
// a daemon's warm restart), against preparing the updated catalog from
// scratch ("reprepare"). cmd/benchjson records the first and the last
// as update_ns and update_prepare_ns; its compare gate fails when their
// ratio, update_vs_prepare_speedup, falls more than -tolerance below
// the committed baseline's.
func BenchmarkUpdate10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-catalog fixture skipped in -short mode (CI runs it in a dedicated profiled step)")
	}
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 120, TargetRows: 500, Gamma: 4, Target: datagen.Ryan, Seed: 1,
		Scale: 10, ExtraAttrs: 4, NoDistractors: true,
	})
	matcher, err := ctxmatch.New(ctxmatch.WithParallelism(1))
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := matcher.Prepare(context.Background(), ds.Target)
	if err != nil {
		b.Fatal(err)
	}
	first := ds.Target.Tables[0]
	delta := ctxmatch.CatalogDelta{Replace: []*ctxmatch.Table{{
		Name: first.Name, Attrs: first.Attrs, Rows: first.Rows[:len(first.Rows)-1],
	}}}
	updated, err := prepared.Update(context.Background(), delta)
	if err != nil {
		b.Fatal(err)
	}

	var snap bytes.Buffer
	if _, err := prepared.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	restored, err := ctxmatch.LoadTarget(&snap)
	if err != nil {
		b.Fatal(err)
	}

	for _, run := range []struct {
		name string
		base *ctxmatch.Target
	}{{"update", prepared}, {"update-restored", restored}} {
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run.base.Update(context.Background(), delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("reprepare", func(b *testing.B) {
		schema := updated.Schema()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh matcher per iteration keeps the artifact cache
			// cold, so every iteration pays the full from-scratch bill.
			m, err := ctxmatch.New(ctxmatch.WithParallelism(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Prepare(context.Background(), schema); err != nil {
				b.Fatal(err)
			}
		}
	})
}
