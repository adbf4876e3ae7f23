package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ctxmatch/internal/relational"
)

// deltaFixture prepares the inventory target and builds a delta against
// it: the book table replaced with a truncated copy, a new table added,
// and the music table dropped.
func deltaFixture(t *testing.T) (*PreparedTarget, *relational.Schema, Delta) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	src, tgt := invFixture(rng, 60, 4)
	opt := DefaultOptions()
	opt.Parallelism = 2
	pt, err := PrepareTarget(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	book := tgt.Tables[0]
	replaced := &relational.Table{Name: book.Name, Attrs: book.Attrs, Rows: book.Rows[:len(book.Rows)/2]}
	added := &relational.Table{Name: "annex", Attrs: book.Attrs, Rows: book.Rows[len(book.Rows)/2:]}
	delta := Delta{
		Replace: []*relational.Table{replaced},
		Add:     []*relational.Table{added},
		Drop:    []string{tgt.Tables[1].Name},
	}
	return pt, relational.NewSchema("RS", src), delta
}

// TestApplyDelta drives the structural validation directly: every
// malformed delta is ErrInvalidDelta, a valid one produces the updated
// schema in splice order with untouched pointers preserved, and the
// touched predicate reports exactly the edited tables.
func TestApplyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, tgt := invFixture(rng, 20, 4)
	book, music := tgt.Tables[0], tgt.Tables[1]

	bad := map[string]Delta{
		"empty":           {},
		"nil add":         {Add: []*relational.Table{nil}},
		"nil replace":     {Replace: []*relational.Table{nil}},
		"unnamed":         {Add: []*relational.Table{{Attrs: book.Attrs}}},
		"add existing":    {Add: []*relational.Table{book}},
		"replace unknown": {Replace: []*relational.Table{{Name: "nope", Attrs: book.Attrs}}},
		"drop unknown":    {Drop: []string{"nope"}},
		"drop twice":      {Drop: []string{book.Name, book.Name}},
		"replace+drop":    {Replace: []*relational.Table{book}, Drop: []string{book.Name}},
	}
	for name, d := range bad {
		if _, _, err := applyDelta(tgt, d); !errors.Is(err, ErrInvalidDelta) {
			t.Errorf("%s: err = %v, want ErrInvalidDelta", name, err)
		}
	}
	if _, _, err := applyDelta(tgt, Delta{Drop: []string{book.Name, music.Name}}); !errors.Is(err, ErrEmptySchema) {
		t.Errorf("drop everything: err = %v, want ErrEmptySchema", err)
	}

	replaced := &relational.Table{Name: book.Name, Attrs: book.Attrs, Rows: book.Rows[:2]}
	added := &relational.Table{Name: "annex", Attrs: music.Attrs, Rows: music.Rows[:2]}
	updated, touched, err := applyDelta(tgt, Delta{
		Replace: []*relational.Table{replaced},
		Add:     []*relational.Table{added},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []*relational.Table{replaced, music, added}
	if !reflect.DeepEqual(updated.Tables, want) {
		t.Errorf("updated tables = %v, want replacement spliced in place and addition appended", updated.Tables)
	}
	if updated.Name != tgt.Name {
		t.Errorf("updated schema renamed to %q", updated.Name)
	}
	if !touched(replaced) || !touched(added) || touched(music) {
		t.Error("touched predicate does not single out the edited tables")
	}
}

// TestPreparedUpdateMatchesFreshPrepare: the core-level delta path must
// match, result for result, a from-scratch PrepareTarget of the updated
// schema, including under target-classifier inference.
func TestPreparedUpdateMatchesFreshPrepare(t *testing.T) {
	pt, src, delta := deltaFixture(t)
	out, err := pt.Update(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PrepareTarget(context.Background(), out.Target(), pt.Options())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ContextMatchPrepared(context.Background(), src, out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ContextMatchPrepared(context.Background(), src, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("fresh prepare found no matches")
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Errorf("delta-updated matches diverge:\n got: %v\nwant: %v", got.Matches, want.Matches)
	}
	if !reflect.DeepEqual(got.Standard, want.Standard) {
		t.Errorf("delta-updated standard matches diverge:\n got: %v\nwant: %v", got.Standard, want.Standard)
	}
}

// TestPreparedUpdateErrors: invalid deltas and dead contexts surface as
// errors without producing a handle.
func TestPreparedUpdateErrors(t *testing.T) {
	pt, _, delta := deltaFixture(t)
	if _, err := pt.Update(context.Background(), Delta{}); !errors.Is(err, ErrInvalidDelta) {
		t.Errorf("empty delta: err = %v, want ErrInvalidDelta", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pt.Update(ctx, delta); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestPreparedUpdateWithoutClassifiers: a handle prepared under
// NaiveInfer (no target classifiers) still updates incrementally and
// agrees with a fresh prepare.
func TestPreparedUpdateWithoutClassifiers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src, tgt := invFixture(rng, 40, 4)
	opt := DefaultOptions()
	opt.Inference = NaiveInfer
	opt.Parallelism = 2
	pt, err := PrepareTarget(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	book := tgt.Tables[0]
	out, err := pt.Update(context.Background(), Delta{
		Replace: []*relational.Table{{Name: book.Name, Attrs: book.Attrs, Rows: book.Rows[:len(book.Rows)-3]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PrepareTarget(context.Background(), out.Target(), opt)
	if err != nil {
		t.Fatal(err)
	}
	srcSchema := relational.NewSchema("RS", src)
	got, err := ContextMatchPrepared(context.Background(), srcSchema, out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ContextMatchPrepared(context.Background(), srcSchema, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Errorf("NaiveInfer delta update diverges from fresh prepare")
	}
}

// TestLiveStatsAgreesWithStats: the O(1) live figures match the full
// Stats walk, before and after an update.
func TestLiveStatsAgreesWithStats(t *testing.T) {
	pt, src, delta := deltaFixture(t)
	if _, err := ContextMatchPrepared(context.Background(), src, pt); err != nil {
		t.Fatal(err)
	}
	check := func(h *PreparedTarget) {
		t.Helper()
		ls, st := h.LiveStats(), h.Stats()
		if ls.Matches != st.Matches {
			t.Errorf("LiveStats.Matches = %d, Stats.Matches = %d", ls.Matches, st.Matches)
		}
		if ls.IndexHitRate != st.IndexHitRate {
			t.Errorf("LiveStats.IndexHitRate = %v, Stats.IndexHitRate = %v", ls.IndexHitRate, st.IndexHitRate)
		}
	}
	check(pt)
	out, err := pt.Update(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats().Matches != pt.Stats().Matches {
		t.Error("match counter not carried across the update")
	}
	check(out)
}
