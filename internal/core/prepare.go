package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
)

// PreparedTarget pins every target-catalog artifact a matching run needs
// — the resolved engine, the precomputed column features and (under
// TgtClassInfer) the trained per-domain target classifiers — into one
// immutable handle, so that matching many source schemas against one
// long-lived catalog performs the target-side work exactly once, up
// front, instead of lazily inside the first ContextMatch call.
//
// A PreparedTarget is safe for concurrent use: everything it holds is
// read-only after PrepareTarget returns. It snapshots the target's
// sample instance by reference; mutating the schema's tables in place
// afterwards silently desynchronizes the pinned artifacts — re-prepare
// after any in-place mutation.
type PreparedTarget struct {
	tgt  *relational.Schema
	opt  Options
	eng  *match.Engine
	arts *targetArtifacts

	// snapshotBytes and restored describe the handle's provenance when
	// it was loaded from a snapshot rather than prepared fresh.
	snapshotBytes int
	restored      bool

	// matches counts successful prepared matches through this handle
	// over its lifetime. It is a pointer so WithParallelism copies share
	// one counter — the serving layer reports it per catalog.
	matches *atomic.Int64
}

// PrepareTarget eagerly resolves the target-side artifacts for tgt under
// opt — the ID-keyed column feature layer and its shared frozen gram
// dictionary, plus (under TgtClassInfer) the per-domain target
// classifiers, compiled from that layer. When opt.Cache
// is set the artifacts are taken from (and stored into) the cache, so
// PrepareTarget after a previous run against the same catalog is free; a
// nil cache computes fresh. An empty or nil target returns
// ErrEmptySchema; an already-canceled context returns before any work is
// spent on the catalog.
func PrepareTarget(ctx context.Context, tgt *relational.Schema, opt Options) (*PreparedTarget, error) {
	if tgt == nil || len(tgt.Tables) == 0 {
		return nil, fmt.Errorf("target %w", ErrEmptySchema)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	pt := &PreparedTarget{tgt: tgt, opt: opt, eng: opt.engine(), matches: &atomic.Int64{}}
	// The feature extraction fans per column across the run's worker
	// budget, merged deterministically into the shared dictionary.
	pt.arts = opt.Cache.artifactsFor(pt.eng, tgt, opt.Inference == TgtClassInfer, opt.Parallelism)
	return pt, nil
}

// Target returns the schema the handle was prepared for.
func (pt *PreparedTarget) Target() *relational.Schema { return pt.tgt }

// PrepStats sizes the catalog and the artifacts a PreparedTarget pins,
// for serving layers that list their prepared catalogs.
type PrepStats struct {
	// Tables, Rows and Attributes size the catalog's sample instance
	// (rows and attributes are summed over the tables).
	Tables, Rows, Attributes int
	// Classifiers counts the trained per-domain target classifiers
	// (zero unless the handle was prepared under TgtClassInfer).
	Classifiers int
	// FeatureColumns counts the precomputed column feature vectors.
	FeatureColumns int
	// DictGrams counts the distinct grams interned into the handle's
	// shared dictionary (catalog column grams and attribute-name grams;
	// the frozen classifiers are keyed by the same ID space).
	DictGrams int
	// DictBytes estimates the memory the interned dictionary pins.
	DictBytes int
	// IndexPostings and IndexBytes size the inverted gram-ID candidate
	// index over the catalog's string columns (zero when the catalog
	// has none).
	IndexPostings int
	IndexBytes    int
	// IndexHitRate is the lifetime fraction of (source column × indexed
	// column) pairs that candidate retrieval could not prove scoreless —
	// the share of the all-pairs cosine work the handle actually
	// performs. Zero before any match.
	IndexHitRate float64
	// SnapshotBytes is the size of the snapshot the handle was restored
	// from, zero for a freshly-prepared handle.
	SnapshotBytes int
	// RestoredFromSnapshot reports whether the handle came from
	// LoadPreparedTarget rather than PrepareTarget.
	RestoredFromSnapshot bool
	// Matches counts the successful prepared matches served through the
	// handle (shared across WithParallelism copies) — the per-catalog
	// traffic figure a serving layer exports.
	Matches int64
}

// Stats reports the size of the catalog and of the pinned artifacts.
func (pt *PreparedTarget) Stats() PrepStats {
	ix := pt.arts.feats.IndexStats()
	s := PrepStats{
		Tables:               len(pt.tgt.Tables),
		Classifiers:          pt.arts.fcls.domains(),
		FeatureColumns:       pt.arts.feats.Columns(),
		DictGrams:            pt.arts.dict.Len(),
		DictBytes:            pt.arts.dict.Bytes(),
		IndexPostings:        ix.Postings,
		IndexBytes:           ix.Bytes,
		IndexHitRate:         ix.HitRate(),
		SnapshotBytes:        pt.snapshotBytes,
		RestoredFromSnapshot: pt.restored,
		Matches:              pt.matches.Load(),
	}
	for _, t := range pt.tgt.Tables {
		s.Rows += len(t.Rows)
		s.Attributes += len(t.Attrs)
	}
	return s
}

// LiveStats are the traffic-dependent PrepStats fields, separated out
// because both are O(1) reads: serving layers refresh them on every
// listing or metrics scrape without paying Stats' dictionary walk.
type LiveStats struct {
	// IndexHitRate is PrepStats.IndexHitRate.
	IndexHitRate float64
	// Matches is PrepStats.Matches.
	Matches int64
}

// LiveStats reports the handle's traffic figures cheaply.
func (pt *PreparedTarget) LiveStats() LiveStats {
	return LiveStats{
		IndexHitRate: pt.arts.feats.IndexStats().HitRate(),
		Matches:      pt.matches.Load(),
	}
}

// Options returns the options the handle was prepared under.
func (pt *PreparedTarget) Options() Options { return pt.opt }

// Features exposes the handle's precomputed column feature layer — the
// frozen gram dictionary, per-column ID vectors and the inverted
// candidate index — to the cross-catalog retrieval subsystem
// (internal/repository), which probes many catalogs' indexes without
// running full matches.
func (pt *PreparedTarget) Features() *match.TargetFeatures { return pt.arts.feats }

// WithParallelism returns a copy of the handle whose runs use n workers
// for per-source-table fan-out, sharing the same pinned artifacts.
// Batch drivers use it to split a fixed worker budget between
// source-level and table-level concurrency.
func (pt *PreparedTarget) WithParallelism(n int) *PreparedTarget {
	if n < 1 {
		n = 1
	}
	c := *pt
	c.opt.Parallelism = n
	return &c
}

// ContextMatchPrepared runs Algorithm ContextMatch (Figure 5) for one
// source schema against a prepared target. It performs zero target-side
// training or column scanning: all catalog artifacts come pinned in pt.
// Context, error, determinism and parallelism semantics are exactly
// ContextMatch's.
func ContextMatchPrepared(ctx context.Context, src *relational.Schema, pt *PreparedTarget) (*Result, error) {
	if err := validateSchemas(src, pt.tgt); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := contextMatchPrepared(ctx, src, pt, time.Now())
	if err == nil {
		pt.matches.Add(1)
	}
	return res, err
}
