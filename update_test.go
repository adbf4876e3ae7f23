package ctxmatch_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/match"
)

// fixtureDelta builds a delta exercising all three edit kinds against
// ds's target: the first table replaced with a row-changed copy, a new
// table appended, and (when the catalog has more than one table) the
// last table dropped.
func fixtureDelta(target *ctxmatch.Schema) ctxmatch.CatalogDelta {
	first := target.Tables[0]
	replaced := &ctxmatch.Table{
		Name:  first.Name,
		Attrs: first.Attrs,
		Rows:  first.Rows[:len(first.Rows)/2],
	}
	added := &ctxmatch.Table{
		Name:  "delta_added",
		Attrs: first.Attrs,
		Rows:  first.Rows[len(first.Rows)/2:],
	}
	delta := ctxmatch.CatalogDelta{
		Replace: []*ctxmatch.Table{replaced},
		Add:     []*ctxmatch.Table{added},
	}
	if n := len(target.Tables); n > 1 {
		delta.Drop = []string{target.Tables[n-1].Name}
	}
	return delta
}

// TestUpdateMatchesFreshPrepare is the incremental-prepare correctness
// bar: Target.Update must produce match results byte-identical — every
// confidence bit — and the same snapshot bytes as a from-scratch
// Prepare of the updated catalog, across all three fixtures at 1 and 8
// workers. It also pins the
// "incremental" claim: the update goes through the delta path
// (TargetUpdates advances) without a build from nothing
// (TargetPrecomputes does not), while the fresh reference prepare is
// exactly one build from nothing and no delta.
func TestUpdateMatchesFreshPrepare(t *testing.T) {
	for name, ds := range snapshotFixtures() {
		t.Run(name, func(t *testing.T) {
			type run struct{ workers int }
			for _, r := range []run{{1}, {8}} {
				m := mustNew(t,
					ctxmatch.WithParallelism(r.workers),
					ctxmatch.WithSeed(5),
				)
				base, err := m.Prepare(context.Background(), ds.Target)
				if err != nil {
					t.Fatalf("%+v: Prepare: %v", r, err)
				}

				precomputes, updates := match.TargetPrecomputes(), match.TargetUpdates()
				updated, err := base.Update(context.Background(), fixtureDelta(ds.Target))
				if err != nil {
					t.Fatalf("%+v: Update: %v", r, err)
				}
				if got := match.TargetUpdates() - updates; got != 1 {
					t.Errorf("%+v: Update performed %d delta feature rebuilds, want 1", r, got)
				}
				if got := match.TargetPrecomputes() - precomputes; got != 0 {
					t.Errorf("%+v: Update performed %d full feature precomputes, want 0", r, got)
				}

				// A fresh matcher (fresh cache) prepares the updated schema
				// from scratch — the bit-identity reference.
				m2 := mustNew(t,
					ctxmatch.WithParallelism(r.workers),
					ctxmatch.WithSeed(5),
				)
				precomputes, updates = match.TargetPrecomputes(), match.TargetUpdates()
				fresh, err := m2.Prepare(context.Background(), updated.Schema())
				if err != nil {
					t.Fatalf("%+v: fresh Prepare of updated schema: %v", r, err)
				}
				if got := match.TargetPrecomputes() - precomputes; got != 1 {
					t.Errorf("%+v: fresh Prepare performed %d builds from nothing, want 1", r, got)
				}
				if got := match.TargetUpdates() - updates; got != 0 {
					t.Errorf("%+v: fresh Prepare performed %d delta rebuilds, want 0", r, got)
				}

				us, fs := updated.Stats(), fresh.Stats()
				if us.Tables != fs.Tables || us.Rows != fs.Rows || us.Attributes != fs.Attributes {
					t.Errorf("%+v: updated catalog sized %d/%d/%d, fresh %d/%d/%d",
						r, us.Tables, us.Rows, us.Attributes, fs.Tables, fs.Rows, fs.Attributes)
				}
				if us.FeatureColumns != fs.FeatureColumns {
					t.Errorf("%+v: updated FeatureColumns=%d, fresh %d", r, us.FeatureColumns, fs.FeatureColumns)
				}
				if us.IndexPostings != fs.IndexPostings {
					t.Errorf("%+v: updated IndexPostings=%d, fresh %d", r, us.IndexPostings, fs.IndexPostings)
				}
				if us.Classifiers != fs.Classifiers {
					t.Errorf("%+v: updated Classifiers=%d, fresh %d", r, us.Classifiers, fs.Classifiers)
				}

				got, err := updated.Match(context.Background(), ds.Source)
				if err != nil {
					t.Fatalf("%+v: updated Match: %v", r, err)
				}
				want, err := fresh.Match(context.Background(), ds.Source)
				if err != nil {
					t.Fatalf("%+v: fresh Match: %v", r, err)
				}
				gs, ws := renderResult(got), renderResult(want)
				if ws == "" {
					t.Fatalf("%+v: empty result", r)
				}
				if gs != ws {
					t.Errorf("%+v: updated handle diverged from fresh prepare:\n got: %s\nwant: %s",
						r, excerptDiff(gs, ws), excerptDiff(ws, gs))
				}

				var updatedSnap, freshSnap bytes.Buffer
				if _, err := updated.WriteSnapshot(&updatedSnap); err != nil {
					t.Fatalf("%+v: updated WriteSnapshot: %v", r, err)
				}
				if _, err := fresh.WriteSnapshot(&freshSnap); err != nil {
					t.Fatalf("%+v: fresh WriteSnapshot: %v", r, err)
				}
				if !bytes.Equal(updatedSnap.Bytes(), freshSnap.Bytes()) {
					t.Errorf("%+v: updated handle wrote different snapshot bytes than a fresh prepare", r)
				}

				// The old handle must keep serving its own catalog unchanged
				// — the atomic-swap drain story.
				if _, err := base.Match(context.Background(), ds.Source); err != nil {
					t.Errorf("%+v: base handle broken after Update: %v", r, err)
				}
			}
		})
	}
}

// TestUpdateChained applies two deltas back to back — the composing
// case PATCH serialization relies on — and checks the final handle
// against a from-scratch Prepare.
func TestUpdateChained(t *testing.T) {
	ds := snapshotFixtures()["inventory"]
	m := mustNew(t, ctxmatch.WithParallelism(2), ctxmatch.WithSeed(5))
	base, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	step1, err := base.Update(context.Background(), fixtureDelta(ds.Target))
	if err != nil {
		t.Fatalf("first Update: %v", err)
	}
	// Second delta: drop the table the first delta added, and restore
	// the replaced table to its original rows.
	step2, err := step1.Update(context.Background(), ctxmatch.CatalogDelta{
		Replace: []*ctxmatch.Table{ds.Target.Tables[0]},
		Drop:    []string{"delta_added"},
	})
	if err != nil {
		t.Fatalf("second Update: %v", err)
	}
	m2 := mustNew(t, ctxmatch.WithParallelism(2), ctxmatch.WithSeed(5))
	fresh, err := m2.Prepare(context.Background(), step2.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := step2.Match(context.Background(), ds.Source)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Match(context.Background(), ds.Source)
	if err != nil {
		t.Fatal(err)
	}
	if gs, ws := renderResult(got), renderResult(want); gs != ws {
		t.Errorf("chained updates diverged:\n got: %s\nwant: %s",
			excerptDiff(gs, ws), excerptDiff(ws, gs))
	}
}

// TestUpdateRestoredReplays: a handle restored from a snapshot updates
// through the delta path — one TargetUpdates, no TargetPrecomputes —
// replaying the merge orders the snapshot stores, and the result is
// bit-identical to a fresh Prepare of the updated catalog: the same
// match results and the same snapshot bytes, across all three fixtures
// at 1 and 8 workers.
func TestUpdateRestoredReplays(t *testing.T) {
	for name, ds := range snapshotFixtures() {
		for _, workers := range []int{1, 8} {
			m := mustNew(t, ctxmatch.WithParallelism(workers), ctxmatch.WithSeed(5))
			base, err := m.Prepare(context.Background(), ds.Target)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := base.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := ctxmatch.LoadTarget(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			precomputes, updates := match.TargetPrecomputes(), match.TargetUpdates()
			updated, err := restored.Update(context.Background(), fixtureDelta(ds.Target))
			if err != nil {
				t.Fatalf("%s/%d: Update on restored handle: %v", name, workers, err)
			}
			if got := match.TargetUpdates() - updates; got != 1 {
				t.Errorf("%s/%d: restored Update performed %d delta feature rebuilds, want 1", name, workers, got)
			}
			if got := match.TargetPrecomputes() - precomputes; got != 0 {
				t.Errorf("%s/%d: restored Update performed %d builds from nothing, want 0", name, workers, got)
			}
			m2 := mustNew(t, ctxmatch.WithParallelism(workers), ctxmatch.WithSeed(5))
			fresh, err := m2.Prepare(context.Background(), updated.Schema())
			if err != nil {
				t.Fatal(err)
			}
			got, err := updated.Match(context.Background(), ds.Source)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Match(context.Background(), ds.Source)
			if err != nil {
				t.Fatal(err)
			}
			if gs, ws := renderResult(got), renderResult(want); gs != ws {
				t.Errorf("%s/%d: restored-handle update diverged:\n got: %s\nwant: %s",
					name, workers, excerptDiff(gs, ws), excerptDiff(ws, gs))
			}
			var updatedSnap, freshSnap bytes.Buffer
			if _, err := updated.WriteSnapshot(&updatedSnap); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.WriteSnapshot(&freshSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(updatedSnap.Bytes(), freshSnap.Bytes()) {
				t.Errorf("%s/%d: restored-handle update wrote different snapshot bytes than a fresh prepare", name, workers)
			}
		}
	}
}

// TestUpdateInvalidDeltas: every structurally bad delta is rejected
// with ErrInvalidDelta before any work runs, and dropping the whole
// catalog reports ErrEmptySchema.
func TestUpdateInvalidDeltas(t *testing.T) {
	ds := snapshotFixtures()["inventory"]
	m := mustNew(t, ctxmatch.WithParallelism(2))
	base, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	first := ds.Target.Tables[0]
	cases := map[string]ctxmatch.CatalogDelta{
		"empty":           {},
		"replace unknown": {Replace: []*ctxmatch.Table{{Name: "nope", Attrs: first.Attrs}}},
		"drop unknown":    {Drop: []string{"nope"}},
		"add existing":    {Add: []*ctxmatch.Table{first}},
		"nil add":         {Add: []*ctxmatch.Table{nil}},
		"nil replace":     {Replace: []*ctxmatch.Table{nil}},
		"unnamed add":     {Add: []*ctxmatch.Table{{Attrs: first.Attrs}}},
		"duplicate name":  {Replace: []*ctxmatch.Table{first}, Drop: []string{first.Name}},
		"double drop":     {Drop: []string{first.Name, first.Name}},
	}
	for name, delta := range cases {
		if _, err := base.Update(context.Background(), delta); !errors.Is(err, ctxmatch.ErrInvalidDelta) {
			t.Errorf("%s: err = %v, want ErrInvalidDelta", name, err)
		}
	}
	var names []string
	for _, tt := range ds.Target.Tables {
		names = append(names, tt.Name)
	}
	if _, err := base.Update(context.Background(), ctxmatch.CatalogDelta{Drop: names}); !errors.Is(err, ctxmatch.ErrEmptySchema) {
		t.Errorf("drop-everything: err = %v, want ErrEmptySchema", err)
	}
}

// TestUpdateCarriesTrafficStats: the match counter survives an update,
// and LiveStats agrees with Stats without the full artifact walk.
func TestUpdateCarriesTrafficStats(t *testing.T) {
	ds := snapshotFixtures()["inventory"]
	m := mustNew(t, ctxmatch.WithParallelism(2))
	base, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Match(context.Background(), ds.Source); err != nil {
		t.Fatal(err)
	}
	updated, err := base.Update(context.Background(), fixtureDelta(ds.Target))
	if err != nil {
		t.Fatal(err)
	}
	if got := updated.Stats().Matches; got != 1 {
		t.Errorf("updated handle Matches = %d, want 1 (carried over)", got)
	}
	ls, st := updated.LiveStats(), updated.Stats()
	if ls.Matches != st.Matches || ls.IndexHitRate != st.IndexHitRate {
		t.Errorf("LiveStats %+v disagrees with Stats (matches=%d hitRate=%v)",
			ls, st.Matches, st.IndexHitRate)
	}
}
