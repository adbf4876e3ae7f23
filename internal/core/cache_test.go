package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ctxmatch/internal/classify"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
)

// TestTargetCacheBounded: the cache must evict oldest entries beyond
// maxTargetEntries instead of growing per distinct schema pointer.
func TestTargetCacheBounded(t *testing.T) {
	c := NewTargetCache()
	var first *relational.Schema
	for i := 0; i < maxTargetEntries+5; i++ {
		s := relational.NewSchema(fmt.Sprintf("T%d", i),
			relational.NewTable("t", relational.Attribute{Name: "a", Type: relational.String}))
		if i == 0 {
			first = s
		}
		if c.artifactsFor(s, false, 1).feats == nil {
			t.Fatalf("artifactsFor returned no feature layer for schema %d", i)
		}
	}
	c.mu.Lock()
	n, evicted := len(c.entries), c.entries[first] == nil
	c.mu.Unlock()
	if n > maxTargetEntries {
		t.Errorf("cache holds %d entries, want ≤ %d", n, maxTargetEntries)
	}
	if !evicted {
		t.Error("oldest entry not evicted")
	}
}

// TestTargetCacheForget: Forget drops both the entry and its eviction
// bookkeeping.
func TestTargetCacheForget(t *testing.T) {
	c := NewTargetCache()
	s := relational.NewSchema("T",
		relational.NewTable("t", relational.Attribute{Name: "a", Type: relational.String}))
	c.artifactsFor(s, false, 1)
	c.Forget(s)
	c.mu.Lock()
	n, ord := len(c.entries), len(c.order)
	c.mu.Unlock()
	if n != 0 || ord != 0 {
		t.Errorf("after Forget: %d entries, %d order slots, want 0/0", n, ord)
	}
	// A forgotten schema is recomputed, not resurrected.
	if c.artifactsFor(s, false, 1).feats == nil {
		t.Error("artifactsFor after Forget returned no feature layer")
	}
}

// TestTargetCacheSharedAcrossEngines: the cached artifacts do not
// depend on the matching engine, so prepares under different engines
// reuse one entry instead of rebuilding it.
func TestTargetCacheSharedAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	_, tgt := invFixture(rng, 60, 4)
	c := NewTargetCache()
	var first *targetArtifacts
	for i, eng := range []*match.Engine{match.NewEngine(), match.NewEngine(), {Matchers: []match.AttrMatcher{match.NameMatcher{W: 1}}}} {
		opt := DefaultOptions()
		opt.Engine, opt.Cache = eng, c
		pt, err := PrepareTarget(context.Background(), tgt, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = pt.arts
		} else if pt.arts != first {
			t.Fatalf("prepare %d under another engine rebuilt the cached artifacts", i+1)
		}
	}
}

// TestTargetCacheUpgradesClassifiers: a cache entry first built without
// classifiers (a NaiveInfer run) and later asked for them (a
// TgtClassInfer run sharing the cache) compiles them from its own
// feature layer: the TgtClassInfer results are byte-identical to those
// of a cache that only ever served TgtClassInfer, and the upgraded
// string classifier is keyed by the entry's feature dictionary, so the
// tagger classifies from the request's projected gram IDs.
func TestTargetCacheUpgradesClassifiers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src, tgt := invFixture(rng, 120, 4)
	srcSchema := relational.NewSchema("RS", src)
	run := func(cache *TargetCache, inf Inference) string {
		t.Helper()
		opt := DefaultOptions()
		opt.Cache, opt.Inference = cache, inf
		res, err := ContextMatch(context.Background(), srcSchema, tgt, opt)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, m := range res.Matches {
			fmt.Fprintf(&b, "M %v score=%.17g conf=%.17g\n", m, m.Score, m.Confidence)
		}
		for _, m := range res.Standard {
			fmt.Fprintf(&b, "S %v score=%.17g conf=%.17g\n", m, m.Score, m.Confidence)
		}
		for _, c := range res.Candidates {
			fmt.Fprintf(&b, "C %v conf=%.17g\n", c.Match, c.Match.Confidence)
		}
		return b.String()
	}
	shared := NewTargetCache()
	run(shared, NaiveInfer)
	if arts := shared.artifactsFor(tgt, false, 1); arts.fcls != nil {
		t.Fatal("NaiveInfer run cached classifiers")
	}
	got := run(shared, TgtClassInfer)
	want := run(NewTargetCache(), TgtClassInfer)
	if want == "" {
		t.Fatal("empty result")
	}
	if got != want {
		t.Errorf("upgraded cache entry diverged:\n got: %s\nwant: %s", got, want)
	}
	arts := shared.artifactsFor(tgt, true, 1)
	nb, ok := arts.fcls.byDomain[relational.DomainString].(*classify.FrozenNaiveBayes)
	if !ok {
		t.Fatal("upgraded entry has no string classifier")
	}
	if nb.Dict() != arts.feats.Dict() {
		t.Error("upgraded string classifier is not keyed by the entry's feature dictionary")
	}
}
