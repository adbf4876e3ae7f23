package ctxmatch_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/match"
)

// multiInventory builds a source schema with 3·k tables (k inventory
// datasets, each contributing its Inventory table and two distractors,
// renamed apart) plus the first dataset's target — the multi-table
// workload the parallel fan-out is for.
func multiInventory(t testing.TB, k int) (*ctxmatch.Schema, *ctxmatch.Schema) {
	t.Helper()
	var tabs []*ctxmatch.Table
	var target *ctxmatch.Schema
	for i := 0; i < k; i++ {
		ds := datagen.Inventory(datagen.InventoryConfig{
			Rows: 240, TargetRows: 120, Gamma: 4, Target: datagen.Ryan, Seed: int64(i + 1),
		})
		if i == 0 {
			target = ds.Target
		}
		for _, tab := range ds.Source.Tables {
			tab.Name = fmt.Sprintf("%s_%d", tab.Name, i)
			tabs = append(tabs, tab)
		}
	}
	return ctxmatch.NewSchema("RS", tabs...), target
}

// renderMatches serializes a result's matches byte-for-byte, including
// the floating-point quality numbers at full precision, so two runs can
// be compared for exact equality.
func renderMatches(res *ctxmatch.Result) string {
	var b strings.Builder
	for _, m := range res.Matches {
		fmt.Fprintf(&b, "%v score=%.17g conf=%.17g\n", m, m.Score, m.Confidence)
	}
	return b.String()
}

func mustNew(t testing.TB, opts ...ctxmatch.Option) *ctxmatch.Matcher {
	t.Helper()
	m, err := ctxmatch.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// TestMatcherParallelDeterminism: WithParallelism(1) and
// WithParallelism(8) must produce byte-identical Result.Matches on a
// multi-table workload — per-table RNGs and schema-order merging make
// goroutine interleaving invisible.
func TestMatcherParallelDeterminism(t *testing.T) {
	source, target := multiInventory(t, 3)
	baseline := ""
	for _, workers := range []int{1, 8} {
		m := mustNew(t, ctxmatch.WithParallelism(workers), ctxmatch.WithSeed(5))
		res, err := m.Match(context.Background(), source, target)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("parallelism %d: no matches", workers)
		}
		got := renderMatches(res)
		if baseline == "" {
			baseline = got
			continue
		}
		if got != baseline {
			t.Errorf("parallelism %d diverged from sequential run:\nsequential:\n%s\nparallel:\n%s",
				workers, baseline, got)
		}
	}
}

// TestMatcherCancellation: a context canceled before and during the run
// must abort it promptly with an error chaining to context.Canceled.
func TestMatcherCancellation(t *testing.T) {
	source, target := multiInventory(t, 4)
	m := mustNew(t, ctxmatch.WithParallelism(2))

	// Canceled before the call: nothing may be computed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := m.Match(ctx, source, target)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Match: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("pre-canceled Match returned a partial result")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-canceled Match took %v, want a prompt return", d)
	}

	// Canceled mid-run: selection must never be reached.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	res, err = m.Match(ctx, source, target)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel: err = %v, want context.Canceled in the chain", err)
		}
		var te *ctxmatch.TableError
		if errors.As(err, &te) && te.Table == "" {
			t.Errorf("TableError with empty table name: %v", err)
		}
	} else if res == nil {
		t.Fatal("nil result without error")
	}
	// A fast machine may legitimately finish before the 5ms cancel —
	// both outcomes are correct; only a hang or a wrong error kind is
	// not.
}

// TestMatcherDeadline: an already-expired deadline surfaces as
// context.DeadlineExceeded.
func TestMatcherDeadline(t *testing.T) {
	source, target := multiInventory(t, 2)
	m := mustNew(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := m.Match(ctx, source, target); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMatcherEngineReuse: two consecutive Match calls on one Matcher
// (the second hitting the per-target cache) must agree with each other
// and with a fresh Matcher.
func TestMatcherEngineReuse(t *testing.T) {
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 300, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: 5,
	})
	reused := mustNew(t, ctxmatch.WithSeed(5))
	first, err := reused.Match(context.Background(), ds.Source, ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	second, err := reused.Match(context.Background(), ds.Source, ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := mustNew(t, ctxmatch.WithSeed(5)).Match(context.Background(), ds.Source, ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	if renderMatches(first) == "" {
		t.Fatal("no matches")
	}
	if renderMatches(second) != renderMatches(first) {
		t.Errorf("second call on a reused Matcher diverged:\n%s\nvs\n%s",
			renderMatches(second), renderMatches(first))
	}
	if renderMatches(fresh) != renderMatches(first) {
		t.Errorf("fresh Matcher diverged from reused one:\n%s\nvs\n%s",
			renderMatches(fresh), renderMatches(first))
	}
	// A mutated catalog must be forgettable without constructing a new
	// Matcher; the call must still succeed afterwards.
	reused.Forget(ds.Target)
	if _, err := reused.Match(context.Background(), ds.Source, ds.Target); err != nil {
		t.Fatalf("Match after Forget: %v", err)
	}
}

// TestMatcherConcurrentUse: one Matcher serving many goroutines — the
// documented service pattern; run under -race this exercises the target
// cache and the engine's concurrent Binds.
func TestMatcherConcurrentUse(t *testing.T) {
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 200, TargetRows: 100, Gamma: 4, Target: datagen.Ryan, Seed: 9,
	})
	m := mustNew(t, ctxmatch.WithSeed(9), ctxmatch.WithParallelism(2))
	var wg sync.WaitGroup
	outs := make([]string, 6)
	errs := make([]error, 6)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.Match(context.Background(), ds.Source, ds.Target)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = renderMatches(res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
		if outs[i] != outs[0] {
			t.Errorf("goroutine %d diverged:\n%s\nvs\n%s", i, outs[i], outs[0])
		}
	}
}

// TestMatcherEmptySchema: nil or table-less schemas are structured
// errors, not silent empty results.
func TestMatcherEmptySchema(t *testing.T) {
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 100, TargetRows: 50, Gamma: 2, Target: datagen.Ryan, Seed: 1,
	})
	m := mustNew(t)
	cases := []struct {
		name     string
		src, tgt *ctxmatch.Schema
	}{
		{"nil source", nil, ds.Target},
		{"empty source", ctxmatch.NewSchema("RS"), ds.Target},
		{"nil target", ds.Source, nil},
		{"empty target", ds.Source, ctxmatch.NewSchema("RT")},
	}
	for _, tc := range cases {
		res, err := m.Match(context.Background(), tc.src, tc.tgt)
		if !errors.Is(err, ctxmatch.ErrEmptySchema) {
			t.Errorf("%s: err = %v, want ErrEmptySchema", tc.name, err)
		}
		if res != nil {
			t.Errorf("%s: non-nil result alongside error", tc.name)
		}
	}
}

// TestMatcherOptionValidation: New reports every bad knob at once,
// wrapped in ErrInvalidOption.
func TestMatcherOptionValidation(t *testing.T) {
	_, err := ctxmatch.New(
		ctxmatch.WithTau(1.5),
		ctxmatch.WithMaxDepth(0),
		ctxmatch.WithParallelism(0),
		ctxmatch.WithTrainFrac(1),
	)
	if err == nil {
		t.Fatal("New accepted an invalid configuration")
	}
	if !errors.Is(err, ctxmatch.ErrInvalidOption) {
		t.Errorf("err = %v, want ErrInvalidOption in the chain", err)
	}
	for _, frag := range []string{"tau", "max depth", "parallelism", "train fraction"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
	if m, err := ctxmatch.New(); err != nil || m == nil {
		t.Fatalf("default New failed: %v", err)
	}
}

// TestMatcherMatchTarget: the reversed entry point through the new API.
func TestMatcherMatchTarget(t *testing.T) {
	rngSeedTables := func() (*ctxmatch.Schema, *ctxmatch.Schema) {
		ds := datagen.Inventory(datagen.InventoryConfig{
			Rows: 300, TargetRows: 150, Gamma: 2, Target: datagen.Ryan, Seed: 3,
		})
		// Reversed roles: the separate tables become the source and the
		// combined inventory the target.
		return ds.Target, ctxmatch.NewSchema("RT", ds.Source.Table("Inventory"))
	}
	src, tgt := rngSeedTables()
	m := mustNew(t, ctxmatch.WithInference(ctxmatch.SrcClassInfer))
	res, err := m.MatchTarget(context.Background(), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	ctxMatches := res.TargetContextualMatches()
	if len(ctxMatches) == 0 {
		t.Fatal("no target contextual matches")
	}
	for _, match := range ctxMatches {
		if !match.Target.IsView() {
			t.Errorf("target side should be a view: %v", match)
		}
	}
}

// TestMatcherOptionsSnapshot: Options() reflects the functional options
// and stays decoupled from the matcher's internals.
func TestMatcherOptionsSnapshot(t *testing.T) {
	m := mustNew(t,
		ctxmatch.WithTau(0.4),
		ctxmatch.WithOmega(7),
		ctxmatch.WithParallelism(3),
		ctxmatch.WithInference(ctxmatch.SrcClassInfer),
	)
	opt := m.Options()
	if opt.Tau != 0.4 || opt.Omega != 7 || opt.Parallelism != 3 || opt.Inference != ctxmatch.SrcClassInfer {
		t.Errorf("Options() = %+v, want the configured values", opt)
	}
	if opt.Cache != nil {
		t.Error("Options() leaked the internal cache")
	}
	if opt.Engine != nil {
		t.Error("Options() leaked the matcher's engine")
	}
	// WithOptions bridges a legacy Options value into the new API.
	bridged := mustNew(t, ctxmatch.WithOptions(opt), ctxmatch.WithSeed(42))
	if got := bridged.Options(); got.Tau != 0.4 || got.Seed != 42 {
		t.Errorf("WithOptions bridge = %+v", got)
	}
	// An externally assembled Options value may leave Parallelism zero;
	// the bridge must keep the Matcher's default instead of failing
	// validation.
	opt.Parallelism = 0
	legacy := mustNew(t, ctxmatch.WithOptions(opt))
	if got := legacy.Options(); got.Parallelism < 1 {
		t.Errorf("WithOptions with zero Parallelism left Parallelism = %d", got.Parallelism)
	}
}

// TestWithOptionsKeepsStandardEngine: an Options value carrying an
// engine — here the default suite with its evidence gate switched off,
// which the test hook shows changes the result — does not replace the
// Matcher's engine: WithOptions matches byte-identically to the
// default.
func TestWithOptionsKeepsStandardEngine(t *testing.T) {
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 300, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: 1,
	})
	run := func(opts ...ctxmatch.Option) string {
		t.Helper()
		res, err := mustNew(t, append(opts, ctxmatch.WithSeed(5), ctxmatch.WithParallelism(1))...).
			Match(context.Background(), ds.Source, ds.Target)
		if err != nil {
			t.Fatal(err)
		}
		return renderResult(res)
	}
	ungated := match.NewEngine()
	ungated.EvidenceScale = 0
	opt := mustNew(t).Options()
	opt.Engine = ungated
	want := run()
	if run(ctxmatch.WithEngine(ungated)) == want {
		t.Fatal("the ungated engine matches like the default; the check below would prove nothing")
	}
	if got := run(ctxmatch.WithOptions(opt)); got != want {
		t.Errorf("WithOptions adopted the engine it carried:\n got: %s\nwant: %s", excerptDiff(got, want), excerptDiff(want, got))
	}
}

// TestMatchTargetEmptySchemaSides: the reversed entry point must blame
// the side the caller passed, not the swapped one.
func TestMatchTargetEmptySchemaSides(t *testing.T) {
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 100, TargetRows: 50, Gamma: 2, Target: datagen.Ryan, Seed: 1,
	})
	m := mustNew(t)
	_, err := m.MatchTarget(context.Background(), ctxmatch.NewSchema("RS"), ds.Target)
	if !errors.Is(err, ctxmatch.ErrEmptySchema) || !strings.Contains(err.Error(), "source") {
		t.Errorf("empty source via MatchTarget: err = %v, want source-side ErrEmptySchema", err)
	}
	_, err = m.MatchTarget(context.Background(), ds.Source, ctxmatch.NewSchema("RT"))
	if !errors.Is(err, ctxmatch.ErrEmptySchema) || !strings.Contains(err.Error(), "target") {
		t.Errorf("empty target via MatchTarget: err = %v, want target-side ErrEmptySchema", err)
	}
}
