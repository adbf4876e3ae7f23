package ctxmatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ctxmatch/internal/core"
)

// Target is a prepared-target session handle: one curated target
// catalog with every catalog-side artifact — trained target
// classifiers, precomputed column features, normalization inputs —
// eagerly pinned by Matcher.Prepare. Matching a source schema through
// the handle performs zero target-side training or column scanning, so
// a long-lived service that matches a stream of incoming source schemas
// against one catalog pays the preparation cost exactly once.
//
// A Target is immutable and safe for concurrent use. It pins the
// catalog's sample instance by reference: mutating the prepared
// schema's tables in place does NOT invalidate the handle (see
// Matcher.Forget) — re-Prepare after any in-place mutation.
type Target struct {
	m        *Matcher
	prep     *core.PreparedTarget
	schema   *Schema
	prepTime time.Duration
}

// TargetStats describes what a prepared handle cost and pins: the
// wall-clock preparation time and the size of the catalog and its
// pinned artifacts. A serving layer lists these per catalog.
//
// PreparedIn measures the Prepare call that built the handle; when the
// artifacts came from the matcher's cache (a re-Prepare of a live
// catalog) it is near zero, which is itself informative.
type TargetStats struct {
	// PreparedIn is the wall-clock duration of the Prepare call.
	PreparedIn time.Duration
	// Tables, Rows and Attributes size the catalog's sample instance.
	Tables, Rows, Attributes int
	// Classifiers counts trained per-domain target classifiers (zero
	// unless prepared under TgtClassInfer).
	Classifiers int
	// FeatureColumns counts precomputed column feature vectors.
	FeatureColumns int
	// DictGrams counts the distinct grams interned into the handle's
	// shared dictionary at prepare time: catalog column grams,
	// attribute-name grams and frozen classifier vocabulary share one
	// dense ID space.
	DictGrams int
	// DictBytes estimates the memory the interned dictionary pins —
	// the dominant per-catalog memory figure beyond the sample itself.
	DictBytes int
	// IndexPostings and IndexBytes size the inverted gram-ID candidate
	// index over the catalog's string columns: the structure that lets
	// scoring retrieve only target columns sharing grams with a source
	// column instead of walking every pair. Zero when the catalog has
	// no string column.
	IndexPostings int
	IndexBytes    int
	// IndexHitRate is the lifetime fraction of (source column × indexed
	// column) pairs the index could not prove scoreless — the share of
	// the all-pairs cosine work matches through this handle actually
	// perform. It starts at 0 and converges as traffic flows.
	IndexHitRate float64
	// SnapshotBytes is the size of the snapshot the handle was restored
	// from (see LoadTarget), zero for a freshly-prepared handle.
	SnapshotBytes int
	// RestoredFromSnapshot reports whether the handle was restored by
	// LoadTarget rather than built by Prepare; PreparedIn then measures
	// the load, not a preparation.
	RestoredFromSnapshot bool
	// Matches counts the successful matches served through this handle
	// (and every WithParallelism copy of it) since it was prepared or
	// restored — the per-catalog traffic figure a serving layer exports.
	Matches int64
}

// Stats reports the preparation cost and pinned-artifact sizes of the
// handle.
func (t *Target) Stats() TargetStats {
	ps := t.prep.Stats()
	return TargetStats{
		PreparedIn:     t.prepTime,
		Tables:         ps.Tables,
		Rows:           ps.Rows,
		Attributes:     ps.Attributes,
		Classifiers:    ps.Classifiers,
		FeatureColumns: ps.FeatureColumns,
		DictGrams:      ps.DictGrams,
		DictBytes:      ps.DictBytes,
		IndexPostings:  ps.IndexPostings,
		IndexBytes:     ps.IndexBytes,
		IndexHitRate:   ps.IndexHitRate,

		SnapshotBytes:        ps.SnapshotBytes,
		RestoredFromSnapshot: ps.RestoredFromSnapshot,
		Matches:              ps.Matches,
	}
}

// Prepare eagerly trains and pins all artifacts that depend only on the
// target catalog and returns an immutable handle for matching source
// schemas against it. Preparing the same schema again on the same
// Matcher is cheap — the artifacts come from the matcher's cache —
// until Forget drops them. An empty or nil target returns
// ErrEmptySchema; a canceled ctx returns before any work is done.
func (m *Matcher) Prepare(ctx context.Context, target *Schema) (*Target, error) {
	start := time.Now()
	pt, err := core.PrepareTarget(ctx, target, m.runOptions())
	if err != nil {
		return nil, err
	}
	return &Target{m: m, prep: pt, schema: target, prepTime: time.Since(start)}, nil
}

// Schema returns the catalog the handle was prepared for.
func (t *Target) Schema() *Schema { return t.schema }

// WithParallelism returns a copy of the handle whose matches fan
// per-table work across n workers, sharing the same pinned artifacts
// (and the same Stats counters). Results are bit-identical at any n;
// the copy is cheap — no artifact is rebuilt.
func (t *Target) WithParallelism(n int) *Target {
	return &Target{m: t.m, prep: t.prep.WithParallelism(n), schema: t.schema, prepTime: t.prepTime}
}

// Prepared exposes the handle's underlying prepared-target artifacts to
// the cross-catalog retrieval subsystem (internal/repository). It is a
// plumbing accessor, not part of the stable public surface: the
// returned type lives in an internal package.
func (t *Target) Prepared() *core.PreparedTarget { return t.prep }

// Match runs contextual schema matching of one source schema against
// the prepared catalog. Semantics are Matcher.Match's — cancellation,
// structured errors, deterministic parallel fan-out — minus all
// target-side work, which was done by Prepare.
func (t *Target) Match(ctx context.Context, source *Schema) (*Result, error) {
	cr, err := core.ContextMatchPrepared(ctx, source, t.prep)
	if err != nil {
		return nil, err
	}
	return newResult(cr), nil
}

// MatchTarget runs contextual matching with the roles reversed, finding
// conditions on the prepared catalog's tables (§3 of the paper).
// Returned matches still read source → target; collect the contextual
// ones with Result.TargetContextualMatches. Because the reversed
// pipeline trains on the *source* side, this path cannot use the pinned
// artifacts; it reuses the owning Matcher's per-catalog cache keyed on
// source instead, exactly like Matcher.MatchTarget.
func (t *Target) MatchTarget(ctx context.Context, source *Schema) (*Result, error) {
	cr, err := core.ContextMatchTarget(ctx, source, t.schema, t.m.runOptions())
	if err != nil {
		return nil, err
	}
	return newResult(cr), nil
}

// SourceError reports the failure of one source schema inside a batch
// or stream run, without failing its siblings. Retrieve with errors.As;
// Unwrap exposes the cause (ErrEmptySchema, a *TableError, ctx.Err()…).
type SourceError struct {
	// Index is the source's position in the MatchAll input slice (or its
	// arrival order on a MatchStream input channel).
	Index int
	// Schema is the source schema's name, empty for a nil schema.
	Schema string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *SourceError) Error() string {
	name := e.Schema
	if name == "" {
		name = "(unnamed)"
	}
	return fmt.Sprintf("source %d %s: %v", e.Index, name, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *SourceError) Unwrap() error { return e.Err }

// MatchAll matches many source schemas against the prepared catalog,
// fanning them across a worker pool bounded by the matcher's
// parallelism (left-over workers speed up per-table fan-out inside each
// run, so small batches on big machines still use the whole budget).
//
// The returned slice is in input order and always has len(sources)
// entries. Per-source failures are isolated: a bad schema yields a nil
// entry and contributes a *SourceError to the joined error, while every
// other source still produces its full, deterministic result — the same
// bytes Match would have produced for it alone. The error is nil only
// when every source succeeded. Cancellation surfaces as *SourceError
// values chaining to ctx.Err() on the sources it struck.
func (t *Target) MatchAll(ctx context.Context, sources []*Schema) ([]*Result, error) {
	results := make([]*Result, len(sources))
	if len(sources) == 0 {
		return results, nil
	}
	outer, inner := splitParallelism(t.prep.Options().Parallelism, len(sources))
	prep := t.prep.WithParallelism(inner)

	errs := make([]error, len(sources))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cr, err := core.ContextMatchPrepared(ctx, sources[i], prep)
				if err != nil {
					errs[i] = &SourceError{Index: i, Schema: schemaName(sources[i]), Err: err}
					continue
				}
				results[i] = newResult(cr)
			}
		}()
	}
	for i := range sources {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var joined []error
	for _, err := range errs {
		if err != nil {
			joined = append(joined, err)
		}
	}
	return results, errors.Join(joined...)
}

// Outcome is one element of a MatchStream output: the per-source result
// or its isolated error, tagged with the source and its arrival order.
type Outcome struct {
	// Index is the source's arrival position on the input channel,
	// starting at 0.
	Index int
	// Source is the schema the outcome belongs to.
	Source *Schema
	// Result is the matching result; nil when Err is set.
	Result *Result
	// Err is a *SourceError when this source failed; its siblings are
	// unaffected.
	Err error
}

// MatchStream matches an unbounded stream of source schemas against the
// prepared catalog. The worker budget is split between source-level
// concurrency and per-table fan-out inside each run (≈√parallelism
// each, since the stream's length is unknown), so both a trickle of
// multi-table sources and a flood of small ones keep the pool busy.
// Outcomes are delivered strictly in arrival order, and each is
// deterministic — identical to what Match would return for that source
// alone. Per-source failures are isolated Outcome.Err values; the
// stream keeps flowing.
//
// The output channel closes after the input channel closes and every
// accepted source has been delivered, or promptly after ctx is
// canceled — in-flight sources then finish with errors chaining to
// ctx.Err() and undelivered outcomes are dropped, but the channel
// always closes, so ranging over it never leaks the consumer.
func (t *Target) MatchStream(ctx context.Context, sources <-chan *Schema) <-chan Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	workers, inner := streamParallelism(t.prep.Options().Parallelism)
	prep := t.prep.WithParallelism(inner)
	out := make(chan Outcome)
	// pending carries one rendezvous channel per accepted source, in
	// arrival order; its buffer is what bounds how many sources run
	// concurrently.
	pending := make(chan chan Outcome, workers)

	go func() { // accept loop
		defer close(pending)
		index := 0
		for {
			var s *Schema
			var ok bool
			select {
			case s, ok = <-sources:
				if !ok {
					return
				}
			case <-ctx.Done():
				return
			}
			slot := make(chan Outcome, 1)
			select {
			case pending <- slot:
			case <-ctx.Done():
				return
			}
			go func(i int, s *Schema) {
				o := Outcome{Index: i, Source: s}
				cr, err := core.ContextMatchPrepared(ctx, s, prep)
				if err != nil {
					o.Err = &SourceError{Index: i, Schema: schemaName(s), Err: err}
				} else {
					o.Result = newResult(cr)
				}
				slot <- o
			}(index, s)
			index++
		}
	}()

	go func() { // ordered delivery loop
		defer close(out)
		canceled := false
		for slot := range pending {
			o := <-slot // the worker always writes exactly once
			if canceled {
				continue
			}
			select {
			case out <- o:
			case <-ctx.Done():
				canceled = true
			}
		}
	}()
	return out
}

// splitParallelism divides a worker budget between source-level fan-out
// (outer) and per-table fan-out inside each run (inner) for a batch of
// n sources.
func splitParallelism(budget, n int) (outer, inner int) {
	if budget < 1 {
		budget = 1
	}
	outer = budget
	if outer > n {
		outer = n
	}
	inner = budget / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// streamParallelism splits the budget for a stream of unknown length:
// ≈√budget concurrent sources, each running with the remaining share,
// so neither a slow trickle nor a flood leaves the pool idle.
func streamParallelism(budget int) (outer, inner int) {
	if budget < 1 {
		budget = 1
	}
	outer = int(math.Ceil(math.Sqrt(float64(budget))))
	inner = budget / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

func schemaName(s *Schema) string {
	if s == nil {
		return ""
	}
	return s.Name
}
