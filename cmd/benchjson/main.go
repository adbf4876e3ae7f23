// Command benchjson measures the headline performance numbers of the
// library — a cold Matcher.Match versus a prepared-target session match
// on the inventory fixture — and writes them to BENCH_<date>.json, so
// that committing one file per run accumulates a machine-readable
// performance trajectory over the repository's history.
//
// Usage:
//
//	go run ./cmd/benchjson            # full fixture, writes BENCH_YYYY-MM-DD.json
//	go run ./cmd/benchjson -quick     # reduced fixture for CI smoke
//	go run ./cmd/benchjson -out dir   # write into dir instead of .
//
// With -compare it becomes a regression gate instead of a recorder:
//
//	go run ./cmd/benchjson -compare BENCH_2026-07-30.json
//
// re-measures on the baseline file's own fixture (so the numbers are
// apples-to-apples regardless of -quick) and exits non-zero when
// prepared_ns_op, prepare_ns, snapshot_load_ns, snapshot_write_ns,
// matchany_ns, matchany32_ns, update_ns, prepared_allocs_op,
// cold_allocs_op, snapshot_write_bytes_op or update_allocs_op regresses
// more than -tolerance (default 25%) over the committed baseline
// (wall-clock metrics use the wider -time-tolerance), or when
// matchany_pruned_frac / matchany32_pruned_frac — the fraction of
// fleet catalogs retrieval prunes at 8 and at 32 catalogs — or
// update_vs_prepare_speedup — the factor by which a single-table delta
// beats re-preparing — collapses below the baseline. Improvements and
// within-tolerance noise pass. Each gated wall-clock metric is the
// median of three measurements in this mode, so one measurement taken
// while the host was busy cannot fail the gate alone; allocation
// counts and ratios come from the first, as when recording. No BENCH
// file is written in this mode.
//
// -cpuprofile and -memprofile write pprof profiles of the prepared-path
// benchmark loop, so perf PRs can attach evidence:
//
//	go run ./cmd/benchjson -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/repository"
)

// report is the schema of one BENCH_<date>.json file.
type report struct {
	Date      string  `json:"date"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Fixture   fixture `json:"fixture"`
	ColdNsOp  int64   `json:"cold_ns_op"`
	// PrepareNs benchmarks Matcher.Prepare at the machine's full worker
	// budget (fresh matcher per iteration, so the artifact cache never
	// hits); PrepareSeqNs is the same preparation at parallelism 1, and
	// PrepareSpeedup their ratio — ~1.0 on a single-CPU box, the
	// table/column fan-out's win elsewhere.
	PrepareNs      int64   `json:"prepare_ns"`
	PrepareSeqNs   int64   `json:"prepare_seq_ns"`
	PrepareSpeedup float64 `json:"prepare_parallel_speedup"`
	PreparedNs     int64   `json:"prepared_ns_op"`
	Speedup        float64 `json:"speedup"`
	ColdAllocs     int64   `json:"cold_allocs_op"`
	PrepAllocs     int64   `json:"prepared_allocs_op"`
	PrepBytes      int64   `json:"prepared_bytes_op"`
	BatchNsOp      int64   `json:"matchall_ns_per_source"`
	BatchSizeN     int     `json:"matchall_sources"`
	BatchPar       int     `json:"matchall_parallelism"`
	ResultBytes    int     `json:"result_wire_bytes"`
	// SnapshotLoadNs times LoadTarget restoring the prepared catalog
	// from an in-memory snapshot of SnapshotBytes bytes — the
	// warm-restart path whose whole point is sitting far under
	// prepare_ns. Zero in baselines recorded before the snapshot
	// subsystem existed, which the compare gate skips.
	SnapshotLoadNs int64 `json:"snapshot_load_ns"`
	SnapshotBytes  int   `json:"snapshot_bytes"`
	// SnapshotWriteNs and SnapshotWriteBytesOp time and weigh
	// WriteSnapshot of the same catalog into io.Discard — the encoder a
	// daemon pays on every persist. Zero in baselines recorded before
	// they were, which the compare gate skips.
	SnapshotWriteNs      int64 `json:"snapshot_write_ns,omitempty"`
	SnapshotWriteBytesOp int64 `json:"snapshot_write_bytes_op,omitempty"`
	// MatchAnyNs times fleet retrieval (top-k candidate catalogs via
	// the floored postings scorer, exact match on survivors only) of one
	// source over a MatchAnyCatalogs-catalog fleet, and
	// MatchAnyPrunedFrac the fraction of catalogs retrieval proved
	// sub-floor and never matched — the pruning factor the repository
	// subsystem exists to buy. Zero in baselines recorded before the
	// fleet existed, which the compare gate skips.
	MatchAnyNs         int64   `json:"matchany_ns,omitempty"`
	MatchAnyPrunedFrac float64 `json:"matchany_pruned_frac,omitempty"`
	MatchAnyCatalogs   int     `json:"matchany_catalogs,omitempty"`
	// MatchAny32* record the same fleet-retrieval figure over a
	// 32-catalog fleet — the registry-at-capacity regime where the fused
	// index's single bound pass prunes most of the fleet before any
	// per-catalog postings are touched. Zero in baselines recorded
	// before the fused index existed, which the compare gate skips.
	MatchAny32Ns         int64   `json:"matchany32_ns,omitempty"`
	MatchAny32PrunedFrac float64 `json:"matchany32_pruned_frac,omitempty"`
	MatchAny32Catalogs   int     `json:"matchany32_catalogs,omitempty"`
	// UpdateNs times Target.Update applying a single-table delta to the
	// prepared enterprise-scale catalog — the incremental-prepare path —
	// and UpdatePrepareNs a from-scratch Prepare of the same updated
	// catalog. UpdateVsPrepareSpeedup is their ratio, the figure the
	// delta path exists to buy; the compare gate fails when it collapses
	// below the baseline. Zero in baselines recorded before incremental
	// prepare existed, which the compare gate skips. UpdateAllocsOp
	// counts the allocations of one such update; zero in baselines
	// recorded before it was, which the compare gate skips.
	UpdateNs               int64   `json:"update_ns,omitempty"`
	UpdatePrepareNs        int64   `json:"update_prepare_ns,omitempty"`
	UpdateVsPrepareSpeedup float64 `json:"update_vs_prepare_speedup,omitempty"`
	UpdateAllocsOp         int64   `json:"update_allocs_op,omitempty"`
}

type fixture struct {
	Rows       int `json:"rows"`
	TargetRows int `json:"target_rows"`
	Gamma      int `json:"gamma"`
	// Scale, ExtraAttrs and NoDistractors describe the enterprise-scale
	// variants (see datagen.InventoryConfig); all zero for the classic
	// 1.5k-row fixture, so old baseline files decode unchanged.
	Scale         int  `json:"scale,omitempty"`
	ExtraAttrs    int  `json:"extra_attrs,omitempty"`
	NoDistractors bool `json:"no_distractors,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "reduced fixture for smoke runs")
	scale := flag.Int("scale", 0, "catalog scale factor: >1 records a point on the scaled enterprise fixture (Scale pairs of tables, extra heterogeneous columns, no source distractors)")
	outDir := flag.String("out", ".", "directory to write BENCH_<date>.json into")
	suffix := flag.String("suffix", "", "optional filename suffix (BENCH_<date>-<suffix>.json), for recording more than one point per day")
	comparePath := flag.String("compare", "", "baseline BENCH_<date>.json: gate on regressions instead of recording")
	tolerance := flag.Float64("tolerance", 0.25, "with -compare: allowed fractional regression before failing")
	timeTolerance := flag.Float64("time-tolerance", 0, "with -compare: wider tolerance for wall-clock metrics, which vary across hardware (0 = same as -tolerance)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the prepared-match loop to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile (taken after the prepared-match loop) to this file")
	flag.Parse()

	var baseline *report
	// reps is how many times each gated wall-clock metric is measured
	// (see medianNs): once when recording, three times when gating.
	reps := 1
	fx := fixture{Rows: 120, TargetRows: 1500, Gamma: 4}
	if *quick {
		fx = fixture{Rows: 80, TargetRows: 300, Gamma: 4}
	}
	if *scale > 1 {
		fx = fixture{Rows: 120, TargetRows: 500, Gamma: 4, Scale: *scale, ExtraAttrs: 4, NoDistractors: true}
	}
	if *comparePath != "" {
		baseline = &report{}
		data, err := os.ReadFile(*comparePath)
		exitOn(err)
		exitOn(json.Unmarshal(data, baseline))
		// Measure on the baseline's fixture so the gated metrics are
		// comparable; a -quick flag alongside -compare is overridden.
		fx = baseline.Fixture
		reps = 3
	}
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: fx.Rows, TargetRows: fx.TargetRows, Gamma: fx.Gamma,
		Scale: fx.Scale, ExtraAttrs: fx.ExtraAttrs, NoDistractors: fx.NoDistractors,
		Target: datagen.Ryan, Seed: 1,
	})

	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := ctxmatch.New(ctxmatch.WithParallelism(1))
			exitOn(err)
			_, err = m.Match(context.Background(), ds.Source, ds.Target)
			exitOn(err)
		}
	})

	// Preparation cost: a fresh Matcher per iteration keeps the artifact
	// cache cold so every iteration pays the full scan-train-compile
	// bill, once at the full worker budget and once sequentially.
	benchPrepare := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := ctxmatch.New(ctxmatch.WithParallelism(workers))
				exitOn(err)
				_, err = m.Prepare(context.Background(), ds.Target)
				exitOn(err)
			}
		}
	}
	prepareNs, _ := medianNs(reps, benchPrepare(runtime.NumCPU()))

	m, err := ctxmatch.New(ctxmatch.WithParallelism(1))
	exitOn(err)
	prepared, err := m.Prepare(context.Background(), ds.Target)
	exitOn(err)

	preparedNs, prep := medianNs(reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := prepared.Match(context.Background(), ds.Source)
			exitOn(err)
		}
	})

	// Warm-restart cost: the same prepared catalog restored from an
	// in-memory snapshot, the serving-fleet alternative to paying
	// prepare_ns on every node.
	var snapBuf bytes.Buffer
	_, err = prepared.WriteSnapshot(&snapBuf)
	exitOn(err)
	snapLoadNs, _ := medianNs(reps, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := ctxmatch.LoadTarget(bytes.NewReader(snapBuf.Bytes()))
			exitOn(err)
		}
	})
	snapWriteNs, snapWrite := medianNs(reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := prepared.WriteSnapshot(io.Discard)
			exitOn(err)
		}
	})
	// Profile a separate run of the same hot loop *after* the
	// measurement, so profiling overhead never leaks into the recorded
	// (and -compare-gated) numbers while the profile still covers
	// exactly the prepared path.
	if *cpuProfile != "" || *memProfile != "" {
		profileHotLoop(prepared, ds, prep.N, *cpuProfile, *memProfile)
	}

	// Fleet retrieval: match-any over a multi-catalog fleet with top-k
	// retrieval. The fleet spec is keyed to the fixture's weight class
	// (quick fixtures get a small fleet) so compare runs — which adopt
	// the baseline's fixture — stay apples-to-apples.
	anyNs, prunedFrac, fleetN := benchMatchAny(fx.TargetRows >= 500, reps)

	// Registry-at-capacity retrieval: the same query over 32 catalogs.
	// Measured on full fixtures only, and in compare mode only when the
	// baseline has the figure — no point paying 32 preparations to gate
	// against a skipped metric.
	any32Ns, pruned32Frac, fleet32N := benchMatchAny32(
		fx.TargetRows >= 500 && (baseline == nil || baseline.MatchAny32Ns > 0), reps)

	// Incremental prepare: a single-table delta through Target.Update
	// versus re-preparing the updated catalog from scratch, sized to the
	// fixture's weight class like the fleet above.
	updNs, updAllocs, updPrepNs, updSpeedup := benchUpdate(fx.TargetRows >= 500, reps)

	if baseline != nil {
		if *timeTolerance == 0 {
			*timeTolerance = *tolerance
		}
		os.Exit(compare(baseline, measured{
			preparedNs:     preparedNs,
			prepareNs:      prepareNs,
			snapshotLoadNs: snapLoadNs,
			snapWriteNs:    snapWriteNs,
			snapWriteBytes: snapWrite.AllocedBytesPerOp(),
			matchAnyNs:     anyNs,
			prunedFrac:     prunedFrac,
			matchAny32Ns:   any32Ns,
			pruned32Frac:   pruned32Frac,
			updateNs:       updNs,
			updateSpeedup:  updSpeedup,
			updateAllocs:   updAllocs,
			preparedAllocs: prep.AllocsPerOp(),
			coldAllocs:     cold.AllocsPerOp(),
		}, *timeTolerance, *tolerance))
	}

	// The sequential prepare point (and the speedup ratio derived from
	// it) only appears in the recorded report, so the -compare gate
	// above exits without paying for it.
	prepareSeqNs := prepareNs
	if runtime.NumCPU() > 1 {
		prepareSeqNs = testing.Benchmark(benchPrepare(1)).NsPerOp()
	}

	// Batch throughput: the same source fanned as a MatchAll batch
	// through a matcher with the machine's full worker budget, so the
	// recorded number reflects (and would catch regressions in) the
	// source-level fan-out, not just the single-match cost again.
	const batch = 4
	batchPar := runtime.NumCPU()
	mBatch, err := ctxmatch.New(ctxmatch.WithParallelism(batchPar))
	exitOn(err)
	preparedBatch, err := mBatch.Prepare(context.Background(), ds.Target)
	exitOn(err)
	sources := make([]*ctxmatch.Schema, batch)
	for i := range sources {
		sources[i] = ds.Source
	}
	batchRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := preparedBatch.MatchAll(context.Background(), sources)
			exitOn(err)
		}
	})

	res, err := prepared.Match(context.Background(), ds.Source)
	exitOn(err)
	wire, err := json.Marshal(res)
	exitOn(err)

	r := report{
		Date:         time.Now().UTC().Format("2006-01-02"),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		Fixture:      fx,
		ColdNsOp:     cold.NsPerOp(),
		PrepareNs:    prepareNs,
		PrepareSeqNs: prepareSeqNs,
		PrepareSpeedup: float64(prepareSeqNs) /
			float64(max64(prepareNs, 1)),
		PreparedNs: preparedNs,
		Speedup: float64(cold.NsPerOp()) /
			float64(max64(preparedNs, 1)),
		ColdAllocs:     cold.AllocsPerOp(),
		PrepAllocs:     prep.AllocsPerOp(),
		PrepBytes:      prep.AllocedBytesPerOp(),
		BatchNsOp:      batchRes.NsPerOp() / batch,
		BatchSizeN:     batch,
		BatchPar:       batchPar,
		ResultBytes:    len(wire),
		SnapshotLoadNs: snapLoadNs,
		SnapshotBytes:  snapBuf.Len(),

		SnapshotWriteNs:      snapWriteNs,
		SnapshotWriteBytesOp: snapWrite.AllocedBytesPerOp(),

		MatchAnyNs:         anyNs,
		MatchAnyPrunedFrac: prunedFrac,
		MatchAnyCatalogs:   fleetN,

		MatchAny32Ns:         any32Ns,
		MatchAny32PrunedFrac: pruned32Frac,
		MatchAny32Catalogs:   fleet32N,

		UpdateNs:               updNs,
		UpdatePrepareNs:        updPrepNs,
		UpdateVsPrepareSpeedup: updSpeedup,
		UpdateAllocsOp:         updAllocs,
	}

	name := r.Date
	if *suffix != "" {
		name += "-" + *suffix
	}
	path := filepath.Join(*outDir, fmt.Sprintf("BENCH_%s.json", name))
	out, err := json.MarshalIndent(r, "", "  ")
	exitOn(err)
	out = append(out, '\n')
	exitOn(os.WriteFile(path, out, 0o644))
	fmt.Printf("wrote %s\n%s", path, out)
}

// benchMatchAny prepares a fleet of catalogs, installs them into a
// repository.Fleet and times one source's top-k MatchAny, returning
// its ns/op, the fraction of catalogs retrieval pruned, and the fleet
// size. full selects the 8-catalog fleet (including the 10k-scale
// enterprise catalog); quick runs get a 4-catalog miniature of the
// same shape. The time is the median of reps measurements.
func benchMatchAny(full bool, reps int) (retrievalNs int64, prunedFrac float64, catalogs int) {
	specs := fleetSpecs(full)
	fleet, src := buildFleet(specs)
	retrievalNs, prunedFrac = benchFleetQuery(fleet, src, repository.Query{K: repository.DefaultK}, reps)
	return retrievalNs, prunedFrac, len(specs)
}

// benchMatchAny32 measures fleet retrieval at registry capacity: the
// full 8-catalog fleet plus 24 more small distinct catalogs, 32 in
// all, where the fused index's single bound pass prunes most of the
// fleet before any per-catalog postings are touched. Skipped (all
// zeros) when run is false — quick fixtures, or compare runs whose
// baseline predates the fused index.
func benchMatchAny32(run bool, reps int) (retrievalNs int64, prunedFrac float64, catalogs int) {
	if !run {
		return 0, 0, 0
	}
	specs := fleetSpecs(true)
	layouts := []datagen.TargetSchema{datagen.Aaron, datagen.Barrett, datagen.Ryan}
	for i := len(specs); i < 32; i++ {
		specs = append(specs, datagen.InventoryConfig{
			Rows: 80, TargetRows: 60, Gamma: 4,
			Target: layouts[i%len(layouts)], Seed: int64(100 + i),
		})
	}
	fleet, src := buildFleet(specs)
	retrievalNs, prunedFrac = benchFleetQuery(fleet, src, repository.Query{K: repository.DefaultK}, reps)
	return retrievalNs, prunedFrac, len(specs)
}

// fleetSpecs is the benchmark fleet's catalog roster; full selects the
// 8-catalog fleet (including the 10k-scale enterprise catalog), quick
// runs the 4-catalog miniature of the same shape.
func fleetSpecs(full bool) []datagen.InventoryConfig {
	specs := []datagen.InventoryConfig{
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 11},
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Barrett, Seed: 21},
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 31},
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 32, NoDistractors: true},
	}
	if full {
		specs = append(specs,
			datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 12, ExtraAttrs: 2},
			datagen.InventoryConfig{Rows: 80, TargetRows: 40, Gamma: 4, Target: datagen.Aaron, Seed: 2, Scale: 4},
			datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 6, Target: datagen.Barrett, Seed: 22},
			datagen.InventoryConfig{Rows: 120, TargetRows: 500, Gamma: 4, Target: datagen.Ryan, Seed: 1, Scale: 10, ExtraAttrs: 4, NoDistractors: true},
		)
	}
	return specs
}

// buildFleet prepares every spec and installs it into a fresh fleet,
// returning the fleet and the first Ryan dataset's source — the query
// schema every fleet benchmark uses.
func buildFleet(specs []datagen.InventoryConfig) (*repository.Fleet, *ctxmatch.Schema) {
	m, err := ctxmatch.New()
	exitOn(err)
	fleet := repository.NewFleet()
	var src *ctxmatch.Schema
	for i, cfg := range specs {
		fds := datagen.Inventory(cfg)
		prepared, err := m.Prepare(context.Background(), fds.Target)
		exitOn(err)
		fleet.Installed(fmt.Sprintf("bench%d", i), 1, prepared)
		if cfg.Target == datagen.Ryan && src == nil {
			src = fds.Source
		}
	}
	return fleet, src
}

// benchFleetQuery times one MatchAny query shape against the fleet —
// the median of reps measurements — and reports the fraction of
// catalogs retrieval pruned.
func benchFleetQuery(fleet *repository.Fleet, src *ctxmatch.Schema, q repository.Query, reps int) (int64, float64) {
	var prunedFrac float64
	ns, _ := medianNs(reps, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := fleet.MatchAny(context.Background(), src, q)
			exitOn(err)
			if rep.Considered > 0 {
				prunedFrac = float64(rep.Pruned) / float64(rep.Considered)
			}
		}
	})
	return ns, prunedFrac
}

// benchUpdate prepares a catalog, applies a single-table delta (one
// table replaced with a row-changed copy) through Target.Update, and
// times that against a from-scratch Prepare of the updated catalog with
// a cold artifact cache, returning the update's ns/op and allocations
// per op, the prepare's ns/op and their ratio. full selects the 10k-row
// enterprise fixture — the scale where re-preparing on every table
// change stops being an option; quick runs get a 4-pair miniature.
// updateNs is the median of reps measurements; the allocations and the
// ratio come from the first, against one re-prepare measurement.
func benchUpdate(full bool, reps int) (updateNs, updateAllocs, prepareNs int64, speedup float64) {
	cfg := datagen.InventoryConfig{Rows: 80, TargetRows: 40, Gamma: 4, Target: datagen.Ryan, Seed: 1, Scale: 4}
	if full {
		cfg = datagen.InventoryConfig{Rows: 120, TargetRows: 500, Gamma: 4, Target: datagen.Ryan, Seed: 1, Scale: 10, ExtraAttrs: 4, NoDistractors: true}
	}
	ds := datagen.Inventory(cfg)
	m, err := ctxmatch.New(ctxmatch.WithParallelism(1))
	exitOn(err)
	prepared, err := m.Prepare(context.Background(), ds.Target)
	exitOn(err)
	first := ds.Target.Tables[0]
	delta := ctxmatch.CatalogDelta{Replace: []*ctxmatch.Table{{
		Name: first.Name, Attrs: first.Attrs, Rows: first.Rows[:len(first.Rows)-1],
	}}}
	updated, err := prepared.Update(context.Background(), delta)
	exitOn(err)
	updateNs, upd := medianNs(reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := prepared.Update(context.Background(), delta)
			exitOn(err)
		}
	})
	schema := updated.Schema()
	reprep := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mi, err := ctxmatch.New(ctxmatch.WithParallelism(1))
			exitOn(err)
			_, err = mi.Prepare(context.Background(), schema)
			exitOn(err)
		}
	})
	return updateNs, upd.AllocsPerOp(), reprep.NsPerOp(),
		float64(reprep.NsPerOp()) / float64(max64(upd.NsPerOp(), 1))
}

// medianNs runs the benchmark reps times and returns the median ns/op,
// with the first run's result for the figures that are not wall clock
// (allocations, iteration count).
func medianNs(reps int, f func(*testing.B)) (int64, testing.BenchmarkResult) {
	first := testing.Benchmark(f)
	ns := []int64{first.NsPerOp()}
	for len(ns) < reps {
		ns = append(ns, testing.Benchmark(f).NsPerOp())
	}
	slices.Sort(ns)
	return ns[len(ns)/2], first
}

// measured carries the re-measured values of every gated metric into
// compare.
type measured struct {
	preparedNs     int64
	prepareNs      int64
	snapshotLoadNs int64
	snapWriteNs    int64
	snapWriteBytes int64
	matchAnyNs     int64
	prunedFrac     float64
	matchAny32Ns   int64
	pruned32Frac   float64
	updateNs       int64
	updateSpeedup  float64
	updateAllocs   int64
	preparedAllocs int64
	coldAllocs     int64
}

// compare gates the regression-prone headline metrics against the
// baseline: prepared_ns_op, prepare_ns, snapshot_load_ns,
// snapshot_write_ns, matchany_ns and update_ns (the steady-state
// serving cost, the catalog onboarding cost, the warm-restart cost, the
// persist cost, the fleet retrieval cost and the incremental-update
// cost, gated with timeTol because wall clock shifts with hardware),
// plus prepared_allocs_op, cold_allocs_op, snapshot_write_bytes_op and
// update_allocs_op (allocation discipline of the hot path, the full
// pipeline, the snapshot encoder and the incremental update,
// hardware-independent and gated with the strict allocTol), plus
// matchany_pruned_frac and update_vs_prepare_speedup gated downward —
// a collapse in the fraction of catalogs retrieval prunes, or in the
// factor by which a delta beats re-preparing, is a regression of the
// respective subsystem's whole point even if wall clock hides it on a
// fast machine. Returns the process exit code: 0 within tolerance, 1
// regressed.
func compare(baseline *report, now measured, timeTol, allocTol float64) int {
	fmt.Printf("comparing against baseline %s (%s, %s/%s, fixture %d/%d rows)\n",
		baseline.Date, baseline.GoVersion, baseline.GOOS, baseline.GOARCH,
		baseline.Fixture.Rows, baseline.Fixture.TargetRows)
	failed := false
	check := func(metric string, base, now int64, tolerance float64) {
		if base <= 0 {
			fmt.Printf("  %-18s baseline %d — skipped\n", metric, base)
			return
		}
		ratio := float64(now)/float64(base) - 1
		verdict := "ok"
		if ratio > tolerance {
			verdict = fmt.Sprintf("REGRESSED beyond %.0f%%", tolerance*100)
			failed = true
		}
		fmt.Printf("  %-18s %12d -> %12d  (%+.1f%%)  %s\n", metric, base, now, ratio*100, verdict)
	}
	check("prepared_ns_op", baseline.PreparedNs, now.preparedNs, timeTol)
	check("prepare_ns", baseline.PrepareNs, now.prepareNs, timeTol)
	check("snapshot_load_ns", baseline.SnapshotLoadNs, now.snapshotLoadNs, timeTol)
	check("snapshot_write_ns", baseline.SnapshotWriteNs, now.snapWriteNs, timeTol)
	check("matchany_ns", baseline.MatchAnyNs, now.matchAnyNs, timeTol)
	check("matchany32_ns", baseline.MatchAny32Ns, now.matchAny32Ns, timeTol)
	check("update_ns", baseline.UpdateNs, now.updateNs, timeTol)
	check("prepared_allocs_op", baseline.PrepAllocs, now.preparedAllocs, allocTol)
	check("cold_allocs_op", baseline.ColdAllocs, now.coldAllocs, allocTol)
	check("snapshot_write_bytes_op", baseline.SnapshotWriteBytesOp, now.snapWriteBytes, allocTol)
	check("update_allocs_op", baseline.UpdateAllocsOp, now.updateAllocs, allocTol)
	// Ratio metrics gate in the other direction: lower is worse. Both
	// are same-machine ratios, so they gate with the strict tolerance
	// even across hardware.
	checkDown := func(metric string, base, now float64) {
		if base <= 0 {
			fmt.Printf("  %-18s baseline %.3f — skipped\n", metric, base)
			return
		}
		verdict := "ok"
		if now < base*(1-allocTol) {
			verdict = fmt.Sprintf("REGRESSED beyond %.0f%%", allocTol*100)
			failed = true
		}
		fmt.Printf("  %-18s %12.3f -> %12.3f  %s\n", metric, base, now, verdict)
	}
	checkDown("matchany_pruned_frac", baseline.MatchAnyPrunedFrac, now.prunedFrac)
	checkDown("matchany32_pruned_frac", baseline.MatchAny32PrunedFrac, now.pruned32Frac)
	checkDown("update_vs_prepare_speedup", baseline.UpdateVsPrepareSpeedup, now.updateSpeedup)
	if failed {
		fmt.Println("bench regression gate: FAIL")
		return 1
	}
	fmt.Println("bench regression gate: PASS")
	return 0
}

// profileHotLoop re-runs the prepared-match loop for n iterations (at
// least 10) under the requested pprof collectors. It runs outside every
// measurement so the profiles are evidence, not interference.
func profileHotLoop(prepared *ctxmatch.Target, ds *datagen.Dataset, n int, cpuPath, memPath string) {
	if n < 10 {
		n = 10
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			exitOn(f.Close())
			fmt.Fprintf(os.Stderr, "benchjson: wrote CPU profile to %s\n", cpuPath)
		}()
	}
	for i := 0; i < n; i++ {
		_, err := prepared.Match(context.Background(), ds.Source)
		exitOn(err)
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		exitOn(err)
		runtime.GC()
		exitOn(pprof.WriteHeapProfile(f))
		exitOn(f.Close())
		fmt.Fprintf(os.Stderr, "benchjson: wrote allocation profile to %s\n", memPath)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
