package repository

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
)

// Best returns the top-ranked match, or nil when no catalog matched.
func (r *Report) Best() *CatalogMatch {
	if len(r.Ranked) == 0 {
		return nil
	}
	return &r.Ranked[0]
}

// fleetSpec is one catalog of the shared test fleet. The eight specs
// span all three student layouts, several seeds and shape knobs (so the
// catalogs are genuinely distinct), and include one enterprise-scale
// fixture: ryan-10k holds 10,000 rows across 20 tables (TargetRows 500
// × Scale 10) — the regime the retrieval layer exists for.
type fleetSpec struct {
	name string
	cfg  datagen.InventoryConfig
}

var fleetSpecs = []fleetSpec{
	{"aaron-1", datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 11}},
	{"aaron-2", datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 12, ExtraAttrs: 2}},
	{"aaron-scaled", datagen.InventoryConfig{Rows: 80, TargetRows: 40, Gamma: 4, Target: datagen.Aaron, Seed: 2, Scale: 4}},
	{"barrett-1", datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Barrett, Seed: 21}},
	{"barrett-2", datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 6, Target: datagen.Barrett, Seed: 22}},
	{"ryan-1", datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 31}},
	{"ryan-2", datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 32, NoDistractors: true}},
	{"ryan-10k", datagen.InventoryConfig{Rows: 120, TargetRows: 500, Gamma: 4, Target: datagen.Ryan, Seed: 1, Scale: 10, ExtraAttrs: 4, NoDistractors: true}},
}

// fleetFixture is the prepared eight-catalog fleet every test and
// benchmark shares: preparing ryan-10k trains real classifiers over
// 10,000 rows, so it happens exactly once per test binary.
type fleetFixture struct {
	datasets map[string]*datagen.Dataset
	targets  map[string]*ctxmatch.Target
	err      error
}

var (
	fixtureOnce sync.Once
	fixture     fleetFixture
)

func sharedFleet(t testing.TB) *fleetFixture {
	fixtureOnce.Do(func() {
		fixture.datasets = map[string]*datagen.Dataset{}
		fixture.targets = map[string]*ctxmatch.Target{}
		m, err := ctxmatch.New(ctxmatch.WithSeed(5))
		if err != nil {
			fixture.err = err
			return
		}
		for _, spec := range fleetSpecs {
			ds := datagen.Inventory(spec.cfg)
			tgt, err := m.Prepare(context.Background(), ds.Target)
			if err != nil {
				fixture.err = fmt.Errorf("prepare %s: %w", spec.name, err)
				return
			}
			fixture.datasets[spec.name] = ds
			fixture.targets[spec.name] = tgt
		}
	})
	if fixture.err != nil {
		t.Fatalf("shared fleet fixture: %v", fixture.err)
	}
	return &fixture
}

// newTestFleet builds a fleet over the shared catalogs with every
// prepared handle rebound to the given worker count.
func newTestFleet(t testing.TB, workers int) *Fleet {
	fx := sharedFleet(t)
	f := NewFleet()
	for i, spec := range fleetSpecs {
		f.Installed(spec.name, i+1, fx.targets[spec.name].WithParallelism(workers))
	}
	return f
}

// matchEvery is the exhaustive reference for MatchAny: the exact
// prepared match of src against every installed catalog — no
// retrieval, no pruning, no shared source projection — ranked the way
// MatchAny ranks its survivors. Retrieval may only skip catalogs that
// cannot win, so MatchAny's winner and its edges must equal this
// report's.
func matchEvery(t testing.TB, f *Fleet, src *ctxmatch.Schema) *Report {
	t.Helper()
	rep := &Report{}
	for _, e := range f.Entries() {
		res, err := e.Target.Match(context.Background(), src)
		if err != nil {
			t.Fatalf("match %s: %v", e.Name, err)
		}
		rep.Ranked = append(rep.Ranked, CatalogMatch{
			Name: e.Name, Generation: e.Generation, Score: aggregateScore(res), Result: res,
		})
	}
	slices.SortStableFunc(rep.Ranked, rankCatalogMatches)
	rep.Considered, rep.Matched = len(rep.Ranked), len(rep.Ranked)
	return rep
}

// numericOnlyTarget prepares barrett-1's catalog cut down to its
// numeric columns: a catalog with no string column, hence no candidate
// index, which retrieval cannot score and always lets through.
func numericOnlyTarget(t testing.TB) *ctxmatch.Target {
	t.Helper()
	var tables []*relational.Table
	for _, tt := range sharedFleet(t).datasets["barrett-1"].Target.Tables {
		var attrs []relational.Attribute
		var cols []int
		for i, a := range tt.Attrs {
			if a.Type.Domain() == relational.DomainNumber {
				attrs = append(attrs, a)
				cols = append(cols, i)
			}
		}
		if len(attrs) == 0 {
			continue
		}
		nt := relational.NewTable(tt.Name, attrs...)
		for _, row := range tt.Rows {
			out := make(relational.Tuple, len(cols))
			for j, i := range cols {
				out[j] = row[i]
			}
			nt.Append(out)
		}
		tables = append(tables, nt)
	}
	m, err := ctxmatch.New(ctxmatch.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := m.Prepare(context.Background(), relational.NewSchema("numeric-only", tables...))
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Prepared().Features().Index() != nil {
		t.Fatal("numeric-only catalog built a candidate index")
	}
	return tgt
}

// winningEdges renders the report's best match as the canonical JSON of
// its selected edges — the bit-identity token the acceptance property
// compares across modes and worker counts.
func winningEdges(t *testing.T, rep *Report) (string, string) {
	t.Helper()
	best := rep.Best()
	if best == nil {
		t.Fatal("report has no successful match")
	}
	buf, err := json.Marshal(best.Result.Matches)
	if err != nil {
		t.Fatalf("marshal winning edges: %v", err)
	}
	return best.Name, string(buf)
}

// TestMatchAnyAgreesWithExhaustive is the subsystem's acceptance
// property: over the eight-catalog fleet (including the 10k-scale
// fixture), retrieval-pruned match-any returns the same winning catalog
// as exhaustively matching every catalog (matchEvery), with
// bit-identical winning edges, at one and at eight workers.
func TestMatchAnyAgreesWithExhaustive(t *testing.T) {
	sources := []string{"aaron-1", "barrett-2", "ryan-10k"}
	for _, srcName := range sources {
		t.Run(srcName, func(t *testing.T) {
			src := sharedFleet(t).datasets[srcName].Source
			var baseName, baseEdges string
			first := true
			for _, workers := range []int{1, 8} {
				f := newTestFleet(t, workers)
				for _, exhaustive := range []bool{false, true} {
					rep := matchEvery(t, f, src)
					if !exhaustive {
						var err error
						if rep, err = f.MatchAny(context.Background(), src, Query{K: 3}); err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
					}
					if rep.Considered != len(fleetSpecs) {
						t.Fatalf("considered %d catalogs, want %d", rep.Considered, len(fleetSpecs))
					}
					if !exhaustive {
						if rep.Matched > 3 {
							t.Fatalf("retrieval matched %d catalogs, want ≤ 3", rep.Matched)
						}
						if len(rep.Retrieval) != len(fleetSpecs) {
							t.Fatalf("retrieval scored %d catalogs, want %d", len(rep.Retrieval), len(fleetSpecs))
						}
					}
					name, edges := winningEdges(t, rep)
					if first {
						baseName, baseEdges, first = name, edges, false
						continue
					}
					if name != baseName {
						t.Fatalf("workers=%d exhaustive=%v: winner %q, want %q", workers, exhaustive, name, baseName)
					}
					if edges != baseEdges {
						t.Errorf("workers=%d exhaustive=%v: winning edges diverge from baseline", workers, exhaustive)
					}
				}
			}
		})
	}
}

// TestRetrievalRecall measures first-stage recall over the 32-catalog
// fleet: for every fleet-fixture source and k = 1, 2 and 3, whether
// the best catalog by exact match (matchEvery) survives top-k
// retrieval and gets its exact match. The counts are pinned, so a
// change that makes retrieval lose the best catalog more often fails
// here; the table is logged.
func TestRetrievalRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("32-catalog fleet skipped in -short mode")
	}
	ks := []int{1, 2, 3}
	want := []int{8, 8, 8}
	f := newTestFleet32(t, 1)
	got := make([]int, len(ks))
	var table strings.Builder
	fmt.Fprintf(&table, "%-13s %-13s  k=1  k=2  k=3\n", "source", "best")
	for _, spec := range fleetSpecs {
		src := sharedFleet(t).datasets[spec.name].Source
		best := matchEvery(t, f, src).Best().Name
		fmt.Fprintf(&table, "%-13s %-13s", spec.name, best)
		for i, k := range ks {
			rep, err := f.MatchAny(context.Background(), src, Query{K: k})
			if err != nil {
				t.Fatal(err)
			}
			mark := "  -  "
			if slices.ContainsFunc(rep.Ranked, func(cm CatalogMatch) bool { return cm.Name == best }) {
				got[i]++
				mark = "  yes"
			}
			table.WriteString(mark)
		}
		table.WriteString("\n")
	}
	fmt.Fprintf(&table, "%-27s %4d %4d %4d of %d\n", "best survives", got[0], got[1], got[2], len(fleetSpecs))
	t.Logf("retrieval recall over the 32-catalog fleet:\n%s", table.String())
	if !slices.Equal(got, want) {
		t.Fatalf("best catalog survives retrieval %v times at k = %v, pinned %v", got, ks, want)
	}
}

// TestRetrievalPruningIsExact checks the advancing-floor invariant
// directly: the survivors of a k-limited retrieval must be exactly the
// top-k catalogs of an unpruned scoring pass, with identical (exact)
// evidence values, and pruned catalogs must all sit strictly below the
// k-th best evidence.
func TestRetrievalPruningIsExact(t *testing.T) {
	f := newTestFleet(t, 1)
	entries := f.Entries()
	for _, srcName := range []string{"aaron-2", "ryan-1", "ryan-10k"} {
		src := match.FeaturizeSource(sharedFleet(t).datasets[srcName].Source, 1)
		// k = fleet size: the floor never exceeds any catalog's evidence,
		// so nothing is pruned and every evidence value is exact.
		full := retrieve(entries, src, len(entries), 0, time.Time{})
		exact := map[string]float64{}
		for _, cs := range full {
			if cs.Pruned {
				t.Fatalf("%s: catalog %s pruned with k = fleet size", srcName, cs.Name)
			}
			exact[cs.Name] = cs.Evidence
		}
		for _, k := range []int{1, 2, 3} {
			scores := retrieve(entries, src, k, 0, time.Time{})
			kth := full[k-1].Evidence
			survivors := 0
			for _, cs := range scores {
				if cs.Pruned {
					if exact[cs.Name] >= kth {
						t.Errorf("%s k=%d: pruned %s but exact evidence %v ≥ kth best %v",
							srcName, k, cs.Name, exact[cs.Name], kth)
					}
					continue
				}
				survivors++
				if cs.Evidence != exact[cs.Name] {
					t.Errorf("%s k=%d: %s evidence %v, want exact %v",
						srcName, k, cs.Name, cs.Evidence, exact[cs.Name])
				}
			}
			if survivors < k {
				t.Errorf("%s k=%d: only %d survivors", srcName, k, survivors)
			}
			// The ranked prefix must be the top-k of the full ordering.
			for i := 0; i < k; i++ {
				if scores[i].Name != full[i].Name {
					t.Errorf("%s k=%d: rank %d is %s, want %s",
						srcName, k, i, scores[i].Name, full[i].Name)
				}
			}
		}
	}
}

// TestRetrievalDeterministic re-runs the same retrieval and demands an
// identical report, element for element.
func TestRetrievalDeterministic(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["barrett-1"].Source
	base, err := f.MatchAny(context.Background(), src, Query{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := f.MatchAny(context.Background(), src, Query{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(rep.Retrieval)
		want, _ := json.Marshal(base.Retrieval)
		if string(got) != string(want) {
			t.Fatalf("run %d retrieval diverged:\n got %s\nwant %s", i, got, want)
		}
		for j := range rep.Ranked {
			if rep.Ranked[j].Name != base.Ranked[j].Name || rep.Ranked[j].Score != base.Ranked[j].Score {
				t.Fatalf("run %d rank %d: %s/%v, want %s/%v", i, j,
					rep.Ranked[j].Name, rep.Ranked[j].Score, base.Ranked[j].Name, base.Ranked[j].Score)
			}
		}
	}
}

// TestMatchAnyMinScore exercises the MinScore knob: a sub-threshold
// floor changes nothing about the winner, and an absurd floor still
// returns a well-formed (if empty-evidence) report rather than failing.
func TestMatchAnyMinScore(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["ryan-2"].Source
	base, err := f.MatchAny(context.Background(), src, Query{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := f.MatchAny(context.Background(), src, Query{K: 3, MinScore: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if base.Best().Name != strict.Best().Name {
		t.Fatalf("MinScore 0.05 changed winner: %s vs %s", strict.Best().Name, base.Best().Name)
	}
	high, err := f.MatchAny(context.Background(), src, Query{K: 3, MinScore: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if high.Considered != len(fleetSpecs) || len(high.Ranked) == 0 {
		t.Fatalf("MinScore 0.999 report malformed: %+v", high)
	}
}

// TestMatchAnyValidation covers the error surface: empty sources and
// out-of-range MinScore fail structurally, per-catalog failures are
// isolated, and a dead context degrades the report instead of failing.
func TestMatchAnyValidation(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["aaron-1"].Source

	if _, err := f.MatchAny(context.Background(), nil, Query{}); !errors.Is(err, ctxmatch.ErrEmptySchema) {
		t.Fatalf("nil source: %v, want ErrEmptySchema", err)
	}
	if _, err := f.MatchAny(context.Background(), &ctxmatch.Schema{Name: "empty"}, Query{}); !errors.Is(err, ctxmatch.ErrEmptySchema) {
		t.Fatalf("empty source: %v, want ErrEmptySchema", err)
	}
	for _, ms := range []float64{-0.1, 1, 1.5} {
		if _, err := f.MatchAny(context.Background(), src, Query{MinScore: ms}); !errors.Is(err, ctxmatch.ErrInvalidOption) {
			t.Fatalf("MinScore %v: %v, want ErrInvalidOption", ms, err)
		}
	}
	// A dead context no longer fails the request: it degrades. Every
	// survivor is reported skipped with the cancellation reason and no
	// exact match runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := f.MatchAny(ctx, src, Query{})
	if err != nil {
		t.Fatalf("dead context: %v, want a degraded report", err)
	}
	if !rep.Degraded || len(rep.Ranked) != 0 || len(rep.Skipped) == 0 {
		t.Fatalf("dead context report: degraded=%v ranked=%d skipped=%+v",
			rep.Degraded, len(rep.Ranked), rep.Skipped)
	}
	for _, sk := range rep.Skipped {
		if sk.Reason != ReasonCanceled {
			t.Fatalf("dead-context skip reason %q, want %q (%+v)", sk.Reason, ReasonCanceled, sk)
		}
	}
}

// TestMatchAnyEmptyFleet: no catalogs, no winner, no error.
func TestMatchAnyEmptyFleet(t *testing.T) {
	f := NewFleet()
	src := sharedFleet(t).datasets["aaron-1"].Source
	rep, err := f.MatchAny(context.Background(), src, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Considered != 0 || rep.Matched != 0 || rep.Best() != nil {
		t.Fatalf("empty fleet report: %+v", rep)
	}
}

// TestUnindexedCatalogAlwaysSurvives installs one catalog with only
// numeric columns (no candidate index) into a fleet with k=1: the
// unindexed catalog must bypass retrieval, be flagged, and still get an
// exact match — beyond the k budget.
func TestUnindexedCatalogAlwaysSurvives(t *testing.T) {
	fx := sharedFleet(t)
	ds := fx.datasets["barrett-1"]
	plain := numericOnlyTarget(t)

	f := NewFleet()
	f.Installed("indexed-a", 1, fx.targets["aaron-1"])
	f.Installed("indexed-b", 1, fx.targets["ryan-1"])
	f.Installed("plain", 1, plain)
	rep, err := f.MatchAny(context.Background(), ds.Source, Query{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	var plainScore *CatalogScore
	for i := range rep.Retrieval {
		if rep.Retrieval[i].Name == "plain" {
			plainScore = &rep.Retrieval[i]
		}
	}
	if plainScore == nil || !plainScore.Unindexed {
		t.Fatalf("plain catalog not flagged unindexed: %+v", rep.Retrieval)
	}
	if rep.Degraded || len(rep.Skipped) != 0 {
		t.Fatalf("unexpected degradation: %+v", rep.Skipped)
	}
	matched := map[string]bool{}
	for _, cm := range rep.Ranked {
		matched[cm.Name] = true
	}
	if !matched["plain"] {
		t.Fatalf("unindexed catalog skipped the exact match: %+v", rep.Ranked)
	}
	if len(rep.Ranked) != 2 { // top-1 indexed + the unindexed catalog
		t.Fatalf("ranked %d catalogs, want 2: %+v", len(rep.Ranked), rep.Ranked)
	}
}

// TestFleetTracksMutations is the consistency property: any sequence of
// Installed / re-Installed / Removed calls must leave the fleet with
// exactly the entries a from-scratch fleet built from the surviving
// state would hold — same names, generations and handles.
func TestFleetTracksMutations(t *testing.T) {
	fx := sharedFleet(t)
	names := make([]string, 0, len(fleetSpecs))
	for _, spec := range fleetSpecs {
		names = append(names, spec.name)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		live := NewFleet()
		type state struct {
			gen int
			tgt *ctxmatch.Target
		}
		want := map[string]state{}
		gen := 0
		for op := 0; op < 30; op++ {
			name := names[rng.Intn(len(names))]
			if rng.Intn(3) == 0 {
				live.Removed(name)
				delete(want, name)
				continue
			}
			gen++
			tgt := fx.targets[name]
			live.Installed(name, gen, tgt)
			want[name] = state{gen, tgt}
		}
		rebuilt := NewFleet()
		for name, st := range want {
			rebuilt.Installed(name, st.gen, st.tgt)
		}
		a, b := live.Entries(), rebuilt.Entries()
		if len(a) != len(b) {
			t.Fatalf("trial %d: live has %d entries, rebuilt %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Generation != b[i].Generation || a[i].Target != b[i].Target {
				t.Fatalf("trial %d entry %d: live %s/%d, rebuilt %s/%d",
					trial, i, a[i].Name, a[i].Generation, b[i].Name, b[i].Generation)
			}
		}
		if live.Len() != len(want) {
			t.Fatalf("trial %d: Len %d, want %d", trial, live.Len(), len(want))
		}
	}
}

// TestEvictionDuringMatchAny races concurrent match-any requests
// against continuous install/remove churn: no request may fail (beyond
// benign emptiness), because in-flight retrievals finish on the entry
// snapshot they took — the registry's atomic-swap contract.
func TestEvictionDuringMatchAny(t *testing.T) {
	fx := sharedFleet(t)
	f := newTestFleet(t, 1)
	src := fx.datasets["aaron-1"].Source

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		gen := 100
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			spec := fleetSpecs[i%len(fleetSpecs)]
			if i%2 == 0 {
				f.Removed(spec.name)
			} else {
				gen++
				f.Installed(spec.name, gen, fx.targets[spec.name])
			}
		}
	}()

	var reqs sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			for i := 0; i < 10; i++ {
				rep, err := f.MatchAny(context.Background(), src, Query{K: 2})
				if err != nil {
					errs <- err
					return
				}
				for _, sk := range rep.Skipped {
					errs <- fmt.Errorf("catalog %s skipped: %s %s", sk.Name, sk.Reason, sk.Detail)
					return
				}
			}
		}()
	}
	reqs.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("match-any under churn: %v", err)
	}
}

// TestMatchAnyTokenizesSourceOnce: however many catalogs survive —
// including one with no string column, which always survives and is
// projected into like any other — one match-any tokenizes each source
// string column exactly once: retrieval and every survivor's exact
// match read projections of that one pass.
func TestMatchAnyTokenizesSourceOnce(t *testing.T) {
	f := newTestFleet(t, 2)
	f.Installed("numeric-only", len(fleetSpecs)+1, numericOnlyTarget(t).WithParallelism(2))
	for _, srcName := range []string{"aaron-1", "ryan-10k"} {
		src := sharedFleet(t).datasets[srcName].Source
		cols := len(match.FeaturizeSource(src, 1).Cols)
		count := func(label string, run func() *Report) {
			t.Helper()
			before := match.SourceTokenizations()
			rep := run()
			if got := match.SourceTokenizations() - before; got != int64(cols) {
				t.Errorf("%s %s: %d column tokenizations for %d string columns (%d catalogs matched)",
					srcName, label, got, cols, rep.Matched)
			}
			if !slices.ContainsFunc(rep.Ranked, func(cm CatalogMatch) bool { return cm.Name == "numeric-only" }) {
				t.Errorf("%s %s: the catalog without an index did not survive", srcName, label)
			}
		}
		matchAny := func(q Query) func() *Report {
			return func() *Report {
				rep, err := f.MatchAny(context.Background(), src, q)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
		}
		for _, k := range []int{1, 3, len(fleetSpecs) + 1} {
			count(fmt.Sprintf("k=%d", k), matchAny(Query{K: k}))
		}
	}
}
