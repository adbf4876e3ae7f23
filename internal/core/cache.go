package core

import (
	"sync"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// targetArtifacts is everything PrepareTarget pins for one catalog: the
// shared frozen gram dictionary, the ID-keyed column feature layer, and
// (under TgtClassInfer) the per-domain target classifiers compiled into
// the same ID space. All fields are immutable once the struct is
// published and therefore safe for concurrent readers.
type targetArtifacts struct {
	dict  *tokenize.Dict
	feats *match.TargetFeatures
	fcls  *frozenTargetClassifiers
}

// TargetCache memoizes the artifacts of a matching run that depend only
// on the target schema — the shared gram dictionary, the precomputed
// column features of the standard matcher, and the compiled per-domain
// target classifiers of TgtClassInfer (Figure 7) — so a
// long-lived Matcher serving many sources against one catalog pays for
// them once instead of once per source table per call. Entries are
// keyed by schema identity (pointer): the sample instance is assumed
// immutable while cached, which is the same contract ContextMatch
// already places on its inputs mid-run. No artifact depends on the
// matching engine, so matchers with different engines share entries.
//
// A TargetCache is safe for concurrent use by multiple goroutines.
type TargetCache struct {
	mu      sync.Mutex
	entries map[*relational.Schema]*targetEntry
	// order tracks insertion order for bounded FIFO eviction, so a
	// service that rebuilds its schema objects per request cannot grow
	// the cache without limit.
	order []*relational.Schema
}

// maxTargetEntries bounds how many distinct target schemas the cache
// holds at once. The common service shape is a handful of long-lived
// catalogs; when a caller churns through more (e.g. rebuilding schema
// objects per request), the oldest entry is evicted rather than leaking
// a catalog's worth of vectors and classifiers per call.
const maxTargetEntries = 16

type targetEntry struct {
	once sync.Once
	arts *targetArtifacts
	// clsOnce upgrades an entry first built without classifiers (a
	// NaiveInfer/SrcClassInfer matcher sharing the cache with a
	// TgtClassInfer one) by compiling them from the entry's own feature
	// layer, keyed by its dictionary.
	clsOnce sync.Once
}

// NewTargetCache returns an empty cache.
func NewTargetCache() *TargetCache {
	return &TargetCache{entries: map[*relational.Schema]*targetEntry{}}
}

// entry returns (creating if needed) the cache slot for tgt.
func (c *TargetCache) entry(tgt *relational.Schema) *targetEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[tgt]
	if e == nil {
		if len(c.order) >= maxTargetEntries {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
		}
		e = &targetEntry{}
		c.entries[tgt] = e
		c.order = append(c.order, tgt)
	}
	return e
}

// artifactsFor returns the pinned artifact set for tgt, computing it at
// most once per schema; a cache miss builds with up to
// workers goroutines (the built artifacts are bit-identical at any
// worker count, so the cache key ignores it). needCls asks for the
// compiled target classifiers (TgtClassInfer); an entry cached without
// them is upgraded in place, still at most once. A nil receiver
// computes fresh without caching.
func (c *TargetCache) artifactsFor(tgt *relational.Schema, needCls bool, workers int) *targetArtifacts {
	if c == nil {
		return updateTargetArtifacts(nil, tgt, nil, needCls, workers)
	}
	e := c.entry(tgt)
	e.once.Do(func() { e.arts = updateTargetArtifacts(nil, tgt, nil, needCls, workers) })
	c.mu.Lock()
	arts := e.arts
	c.mu.Unlock()
	if needCls && arts.fcls == nil {
		e.clsOnce.Do(func() {
			// Publish a fresh artifact struct so concurrent readers of the
			// old one never observe mutation.
			up := &targetArtifacts{dict: arts.dict, feats: arts.feats, fcls: compileTargetClassifiers(arts.feats)}
			c.mu.Lock()
			e.arts = up
			c.mu.Unlock()
		})
		c.mu.Lock()
		arts = e.arts
		c.mu.Unlock()
	}
	return arts
}

// Forget drops the cached artifacts for tgt, for callers that mutate a
// catalog's sample instance in place. A nil receiver is a no-op.
func (c *TargetCache) Forget(tgt *relational.Schema) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, tgt)
	for i, s := range c.order {
		if s == tgt {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}
