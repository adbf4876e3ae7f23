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
	eng := match.NewEngine()
	var first *relational.Schema
	for i := 0; i < maxTargetEntries+5; i++ {
		s := relational.NewSchema(fmt.Sprintf("T%d", i),
			relational.NewTable("t", relational.Attribute{Name: "a", Type: relational.String}))
		if i == 0 {
			first = s
		}
		if c.featuresFor(eng, s) == nil {
			t.Fatalf("featuresFor returned nil for schema %d", i)
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
	eng := match.NewEngine()
	s := relational.NewSchema("T",
		relational.NewTable("t", relational.Attribute{Name: "a", Type: relational.String}))
	c.featuresFor(eng, s)
	c.Forget(s)
	c.mu.Lock()
	n, ord := len(c.entries), len(c.order)
	c.mu.Unlock()
	if n != 0 || ord != 0 {
		t.Errorf("after Forget: %d entries, %d order slots, want 0/0", n, ord)
	}
	// A forgotten schema is recomputed, not resurrected.
	if c.featuresFor(eng, s) == nil {
		t.Error("featuresFor after Forget returned nil")
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
	eng := match.NewEngine()
	run := func(cache *TargetCache, inf Inference) string {
		t.Helper()
		opt := DefaultOptions()
		opt.Engine, opt.Cache, opt.Inference = eng, cache, inf
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
	if arts := shared.artifactsFor(eng, tgt, false, 1); arts.fcls != nil {
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
	arts := shared.artifactsFor(eng, tgt, true, 1)
	nb, ok := arts.fcls.byDomain[relational.DomainString].(*classify.FrozenNaiveBayes)
	if !ok {
		t.Fatal("upgraded entry has no string classifier")
	}
	if nb.Dict() != arts.feats.Dict() {
		t.Error("upgraded string classifier is not keyed by the entry's feature dictionary")
	}
}
