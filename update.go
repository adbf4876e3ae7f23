package ctxmatch

import (
	"context"
	"time"

	"ctxmatch/internal/core"
)

// CatalogDelta describes an edit to a prepared catalog: tables to
// append, tables to replace wholesale (matched by name — the way to
// ship row changes, since prepared sample instances are immutable), and
// table names to drop. A name may appear in at most one of the three
// lists; Replace and Drop must name tables the catalog holds, Add must
// not. A delta violating any of this — or changing nothing — is
// rejected with ErrInvalidDelta.
type CatalogDelta struct {
	Add     []*Table
	Replace []*Table
	Drop    []string
}

// Update applies a delta to the prepared catalog and returns a new
// immutable handle for the result, rescanning only the tables the delta
// touches: their columns are rescanned and spliced into a fresh
// dictionary while untouched columns replay without reading a row. The
// target classifiers are rebuilt from the result: the string classifier
// compiles from the column vectors and the numeric ones retrain from
// the rows. The returned handle is bit-identical — same match results,
// any worker count — to Prepare of the edited catalog, at a fraction of
// the cost for small deltas (see BenchmarkUpdate10k).
//
// The receiver stays valid: in-flight matches drain against the old
// artifacts while new traffic moves to the returned handle, which is
// the registry atomic-swap story ctxmatchd's PATCH /v1/catalogs/{name}
// builds on. Traffic counters (Stats().Matches) carry over to the new
// handle. A handle restored with LoadTarget updates just as
// incrementally: its snapshot carries the per-column gram order the
// splice replays.
func (t *Target) Update(ctx context.Context, delta CatalogDelta) (*Target, error) {
	start := time.Now()
	pt, err := t.prep.Update(ctx, core.Delta{Add: delta.Add, Replace: delta.Replace, Drop: delta.Drop})
	if err != nil {
		return nil, err
	}
	return &Target{m: t.m, prep: pt, schema: pt.Target(), prepTime: time.Since(start)}, nil
}

// TargetLiveStats are the per-traffic figures of a prepared handle —
// the only TargetStats fields that change after Prepare. Both reads are
// O(1) (atomic counters), so serving layers poll LiveStats on every
// listing or metrics scrape instead of Stats, whose dictionary sizing
// walks every interned gram.
type TargetLiveStats struct {
	// IndexHitRate is TargetStats.IndexHitRate.
	IndexHitRate float64
	// Matches is TargetStats.Matches.
	Matches int64
}

// LiveStats reports the handle's traffic figures without recomputing
// any of the static artifact sizes.
func (t *Target) LiveStats() TargetLiveStats {
	ls := t.prep.LiveStats()
	return TargetLiveStats{IndexHitRate: ls.IndexHitRate, Matches: ls.Matches}
}
