// Package repository implements fleet-wide catalog retrieval: matching
// one incoming source schema against a whole registry of prepared
// catalogs ("which of our catalogs does this schema match, and
// where?").
//
// The expensive, exact answer — run the full prepared match against
// every catalog — degrades linearly with fleet size. The Fleet instead
// keeps a retrieval view over every catalog's existing candidate
// index (the inverted gram-ID postings each prepared handle already
// pins) and scores the source's columns against all of them cheaply:
// per catalog, the evidence score is the mean over source string
// columns of the best cosine any of that catalog's columns achieves.
// Catalogs are scored in deterministic name order under an advancing
// top-k floor — once k catalogs have been scored, the k-th best
// evidence so far becomes a WAND-style floor handed to
// tokenize.Index.ScoreColumnsFloored, and a catalog that provably
// cannot reach it is pruned without finishing its scan. The exact
// prepared match then runs only on the survivors.
//
// Pruning is conservative and the walk order fixed, so retrieval is
// deterministic: the survivor set is exactly the true top-k by
// evidence (ties broken by name), and each survivor's full Result is
// bit-identical to what a direct Target.Match would return.
//
// A Fleet tracks registry mutations through Installed/Removed — the
// same atomic-swap semantics as the catalog registry: entries are
// immutable, a re-install replaces the entry atomically, and in-flight
// retrievals finish on the entry snapshot they already took, so an
// eviction mid-retrieval never fails a request.
package repository

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctxmatch"
	"ctxmatch/internal/core"
	"ctxmatch/internal/fault"
	"ctxmatch/internal/match"
	"ctxmatch/internal/tokenize"
)

// Entry is one catalog of the fleet: the registry name and generation
// it was installed under, the prepared handle, and the handle's feature
// layer (dictionary + candidate index) the retrieval walk probes. An
// Entry is immutable after Installed publishes it.
type Entry struct {
	// Name is the registry name the catalog is installed under.
	Name string
	// Generation is the registry generation of the installed handle.
	Generation int
	// Target is the prepared handle exact matches run on.
	Target *ctxmatch.Target

	feats *match.TargetFeatures
	// slot is the catalog's handle in the fleet's fused index, nil for
	// a catalog without a candidate index — one holding no string
	// column, which cannot be scored cheaply and therefore always
	// survives retrieval. Guarded by the fleet's mutex like the fused
	// index itself.
	slot *tokenize.FusedSlot
	// workers is the handle's own worker budget; cells sizes its sample
	// (rows × attributes over its tables), the input property the
	// survivor fan-out dispatches largest-first by.
	workers, cells int
}

// Fleet is the cross-catalog retrieval index: the set of installed
// catalog entries plus the registry-global fused index over their
// candidate indexes, kept consistent with the owning registry through
// Installed/Removed. All methods are safe for concurrent use; the
// fused index is maintained under the write lock and probed under the
// read lock (its global dictionary stays unfrozen across installs).
type Fleet struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	fused   *tokenize.FusedIndex

	// snap is the last published name-ordered entry slice, maintained
	// by Installed/Removed under the write lock and read lock-free, so
	// retrievals never queue behind a fused-index compaction.
	snap atomic.Pointer[[]*Entry]
	// bypasses counts retrievals served by the per-catalog fallback
	// path because a writer held the fleet lock.
	bypasses atomic.Int64

	// faults, when non-nil, is consulted at the "fleet.match" point
	// before each per-catalog exact match. Set before serving traffic.
	faults *fault.Registry

	bmu     sync.Mutex
	breaker BreakerConfig
	bstate  map[string]*breakerState
}

// NewFleet returns an empty fleet with the default fused-index
// compaction threshold and default circuit-breaker tuning.
func NewFleet() *Fleet {
	return newFleetCompact(0)
}

// newFleetCompact is NewFleet with an explicit fused-index compaction
// threshold (≤ 0 selects the default); the compaction property tests
// exercise the rebuild at every threshold.
func newFleetCompact(threshold int) *Fleet {
	return &Fleet{
		entries: map[string]*Entry{},
		fused:   tokenize.NewFusedIndex(threshold),
		breaker: BreakerConfig{}.normalize(),
		bstate:  map[string]*breakerState{},
	}
}

// InjectFaults installs a fault-injection registry consulted at the
// "fleet.match" point before every per-catalog exact match. A nil
// registry (the default) injects nothing. Call before serving traffic.
func (f *Fleet) InjectFaults(reg *fault.Registry) { f.faults = reg }

// Installed publishes (or atomically replaces) the entry for name and
// fuses its candidate index into the registry-global index. It is
// called for every registry install — prepare, re-prepare, PATCH
// delta swap and snapshot restore — under the registry's own lock, so
// the fleet's view is linearized with the registry's.
func (f *Fleet) Installed(name string, generation int, t *ctxmatch.Target) {
	e := &Entry{
		Name:       name,
		Generation: generation,
		Target:     t,
		feats:      t.Prepared().Features(),
		workers:    max(1, t.Prepared().Options().Parallelism),
	}
	for _, tt := range t.Schema().Tables {
		e.cells += len(tt.Rows) * len(tt.Attrs)
	}
	f.mu.Lock()
	if old := f.entries[name]; old != nil {
		f.fused.Remove(old.slot)
	}
	if ix := e.feats.Index(); ix != nil {
		e.slot = f.fused.Install(e.feats.Dict(), ix)
	}
	f.entries[name] = e
	f.publishLocked()
	f.mu.Unlock()
}

// Removed drops name's entry — LRU eviction or explicit deletion —
// and tombstones its fused-index slot (the structure compacts itself
// at its threshold). Retrievals that already snapshotted the entry
// finish on it; the prepared handle stays valid for them, exactly as
// registry readers finish on an evicted handle.
func (f *Fleet) Removed(name string) {
	f.mu.Lock()
	if old := f.entries[name]; old != nil {
		f.fused.Remove(old.slot)
	}
	delete(f.entries, name)
	f.publishLocked()
	f.mu.Unlock()
	// An evicted catalog's failure history goes with it; a future
	// re-install starts with a closed breaker.
	f.bmu.Lock()
	delete(f.bstate, name)
	f.bmu.Unlock()
}

// Len returns how many catalogs the fleet currently indexes.
func (f *Fleet) Len() int { return len(f.Entries()) }

// FusedStats is the fused index's size-and-effectiveness snapshot,
// re-exported so the serving layer can surface it without reaching
// into the tokenize internals.
type FusedStats = tokenize.FusedStats

// FusedStats snapshots the registry-global fused index.
func (f *Fleet) FusedStats() tokenize.FusedStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.fused.Stats()
}

// publishLocked rebuilds the lock-free entry snapshot from the entry
// map. Callers hold the write lock.
func (f *Fleet) publishLocked() {
	out := make([]*Entry, 0, len(f.entries))
	for _, e := range f.entries {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b *Entry) int { return strings.Compare(a.Name, b.Name) })
	f.snap.Store(&out)
}

// entriesLocked returns the installed catalogs in ascending name
// order — the deterministic base order of every retrieval. Callers
// hold at least the read lock.
func (f *Fleet) entriesLocked() []*Entry {
	if p := f.snap.Load(); p != nil {
		return *p
	}
	return nil
}

// Entries returns the installed catalogs in ascending name order: the
// last published immutable snapshot, read without taking the fleet
// lock so callers never queue behind an install or a fused-index
// compaction.
func (f *Fleet) Entries() []*Entry {
	if p := f.snap.Load(); p != nil {
		return *p
	}
	return nil
}

// Default circuit-breaker tuning: a catalog whose exact match fails
// this many times in a row is skipped (reason "breaker_open") for the
// cooldown, after which one trial match is let through (half-open) —
// success closes the breaker, failure re-opens it for another
// cooldown.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 10 * time.Second
)

// BreakerConfig tunes the per-catalog circuit breakers that keep a
// persistently failing catalog from burning the fleet's match budget.
type BreakerConfig struct {
	// Threshold is how many consecutive match failures open a
	// catalog's breaker; < 0 disables breakers entirely, 0 selects
	// DefaultBreakerThreshold.
	Threshold int
	// Cooldown is how long an open breaker skips its catalog before
	// letting one trial match through; 0 selects
	// DefaultBreakerCooldown.
	Cooldown time.Duration
}

func (c BreakerConfig) normalize() BreakerConfig {
	if c.Threshold == 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	return c
}

type breakerState struct {
	fails     int
	openUntil time.Time
}

// SetBreaker reconfigures the circuit breakers and resets all breaker
// state. Call before serving traffic.
func (f *Fleet) SetBreaker(cfg BreakerConfig) {
	f.bmu.Lock()
	f.breaker = cfg.normalize()
	f.bstate = map[string]*breakerState{}
	f.bmu.Unlock()
}

// breakerAllow reports whether name's breaker admits a match attempt:
// closed, or open but past its cooldown (the half-open trial).
func (f *Fleet) breakerAllow(name string, now time.Time) bool {
	f.bmu.Lock()
	defer f.bmu.Unlock()
	if f.breaker.Threshold < 0 {
		return true
	}
	st := f.bstate[name]
	if st == nil || st.fails < f.breaker.Threshold {
		return true
	}
	return !now.Before(st.openUntil)
}

// breakerRecord feeds one match outcome into name's breaker: success
// closes it, the Threshold-th consecutive failure opens it for the
// cooldown (and a failed half-open trial re-opens it).
func (f *Fleet) breakerRecord(name string, failed bool, now time.Time) {
	f.bmu.Lock()
	defer f.bmu.Unlock()
	if f.breaker.Threshold < 0 {
		return
	}
	if !failed {
		delete(f.bstate, name)
		return
	}
	st := f.bstate[name]
	if st == nil {
		st = &breakerState{}
		f.bstate[name] = st
	}
	st.fails++
	if st.fails >= f.breaker.Threshold {
		st.openUntil = now.Add(f.breaker.Cooldown)
	}
}

// OpenBreakers counts catalogs whose circuit breaker is currently open
// (inside its cooldown) — the serving layer's ctxmatchd_breaker_open
// gauge.
func (f *Fleet) OpenBreakers() int {
	f.bmu.Lock()
	defer f.bmu.Unlock()
	now := time.Now()
	n := 0
	for _, st := range f.bstate {
		if st.fails >= f.breaker.Threshold && now.Before(st.openUntil) {
			n++
		}
	}
	return n
}

// Bypasses counts retrievals served by the per-catalog fallback path
// because a writer (install, removal, compaction) held the fleet lock.
func (f *Fleet) Bypasses() int64 { return f.bypasses.Load() }

// DefaultK is the survivor count when a query does not set one.
const DefaultK = 3

// Query parameterizes one match-any request.
type Query struct {
	// K is how many top-scoring catalogs survive retrieval and receive
	// the exact prepared match; ≤ 0 means DefaultK. Catalogs without a
	// candidate index always survive, beyond K. A K at or above the
	// catalog count matches every catalog: the top-k floor stays 0
	// until K catalogs are scored, so nothing is pruned.
	K int
	// MinScore is the per-column cosine floor: a source column whose
	// best cosine against a catalog falls below it contributes zero
	// evidence. It is also the minimum WAND floor handed to the index,
	// so raising it prunes more postings. Must be in [0, 1).
	MinScore float64
}

// CatalogScore is one catalog's retrieval outcome.
type CatalogScore struct {
	// Name and Generation identify the scored catalog entry.
	Name       string `json:"name"`
	Generation int    `json:"generation"`
	// Evidence is the catalog's retrieval score in [0, 1]: the mean
	// over source string columns of the best cosine any catalog column
	// achieves (columns under the query's MinScore contribute 0).
	// Exact for every non-pruned catalog.
	Evidence float64 `json:"evidence"`
	// Pruned reports that the advancing top-k floor proved the catalog
	// could not reach the current k-th best evidence, so its scan was
	// cut short; Evidence is then a partial lower bound.
	Pruned bool `json:"pruned,omitempty"`
	// Unindexed reports the catalog carries no candidate index — it
	// holds no string column — and therefore bypassed retrieval (it
	// always survives).
	Unindexed bool `json:"unindexed,omitempty"`
	// Skipped reports the retrieval stage's deadline budget expired
	// before this catalog was scored; it takes no part in survivor
	// selection and is listed in the report's Skipped set.
	Skipped bool `json:"skipped,omitempty"`
}

// CatalogMatch is one survivor's exact match outcome.
type CatalogMatch struct {
	// Name and Generation identify the matched catalog entry.
	Name       string
	Generation int
	// Evidence is the catalog's retrieval score (0 for unindexed
	// catalogs).
	Evidence float64
	// Score ranks the catalog: the sum of the confidences of the
	// result's selected matches. Ties break by name.
	Score float64
	// Result is the full prepared-match result — bit-identical to a
	// direct Target.Match of the same source.
	Result *ctxmatch.Result
}

// Skip reasons reported for catalogs a degraded match-any left out.
const (
	// ReasonRetrieveBudget: the retrieval stage's share of the request
	// deadline expired before this catalog was scored.
	ReasonRetrieveBudget = "retrieve_budget"
	// ReasonDeadline: the request deadline expired before or during
	// this catalog's exact match.
	ReasonDeadline = "deadline"
	// ReasonCanceled: the request was canceled mid-flight.
	ReasonCanceled = "canceled"
	// ReasonBreakerOpen: the catalog's circuit breaker was open after
	// repeated failures, so no match was attempted.
	ReasonBreakerOpen = "breaker_open"
	// ReasonError: this catalog's match failed in isolation; Detail
	// carries the error text.
	ReasonError = "error"
)

// SkippedCatalog names one catalog a degraded match-any did not
// exact-match, and why.
type SkippedCatalog struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

// Report is the outcome of one MatchAny: the exact-matched survivors in
// rank order plus the retrieval scores of every considered catalog.
type Report struct {
	// Ranked holds the completed survivors' exact match outcomes, best
	// first (score descending, ties by name). Every entry carries a
	// full Result bit-identical to a direct Target.Match; catalogs
	// that failed or were skipped are in Skipped instead.
	Ranked []CatalogMatch
	// Retrieval holds every considered catalog's evidence score,
	// survivors first in rank order, then pruned catalogs by name,
	// then budget-skipped ones.
	Retrieval []CatalogScore
	// Considered, Pruned and Matched count the catalogs the request
	// touched: all installed, cut off by the advancing floor, and
	// exact-matched.
	Considered, Pruned, Matched int
	// Degraded reports the answer is partial: at least one catalog was
	// skipped. Results for completed catalogs are still exact.
	Degraded bool
	// Skipped lists the catalogs left out and why, in the order they
	// were given up on.
	Skipped []SkippedCatalog
}

func (r *Report) skip(name, reason, detail string) {
	r.Skipped = append(r.Skipped, SkippedCatalog{Name: name, Reason: reason, Detail: detail})
}

// Best returns the top-ranked match, or nil when no catalog matched.
func (r *Report) Best() *CatalogMatch {
	if len(r.Ranked) == 0 {
		return nil
	}
	return &r.Ranked[0]
}

// retrieveBudgetDiv is the retrieval stage's share of the remaining
// request deadline: 1/retrieveBudgetDiv of it, the rest reserved for
// the exact matches (the expensive stage).
const retrieveBudgetDiv = 4

// MatchAny answers "which catalogs does this source match, and where?":
// it retrieves the top-k candidate catalogs by indexed evidence (see
// the package comment for the pruning invariants), runs the exact
// prepared match on each survivor, and ranks the outcomes.
//
// The source is tokenized once, up front and outside the fleet lock;
// retrieval keys that one tokenization into the fused index's global
// IDs, and each survivor's match receives its projection into the
// catalog's own ID space instead of re-tokenizing the source. The
// survivors' exact matches then share the worker budget — the smallest
// of the survivors' own Parallelism — as min(budget, survivors)
// concurrent matches of budget/concurrent workers each, largest
// catalog first. Outcomes assemble in survivor order, so the report is
// the same at any budget.
//
// MatchAny degrades instead of failing. The request deadline (when ctx
// carries one) is split into stage budgets — retrieval gets a quarter
// of what remains, the exact matches the rest — and a catalog whose
// budget ran out, whose match failed in isolation, or whose circuit
// breaker is open is reported in Report.Skipped with a reason while
// every completed catalog's Result stays exact and bit-identical to a
// direct Target.Match. Breakers and the "fleet.match" fault point are
// consulted in survivor order before any match is dispatched, so a
// seeded fault schedule hits the same catalogs at any budget. MatchAny
// itself errors only on an empty source or an invalid query, never on
// a deadline.
func (f *Fleet) MatchAny(ctx context.Context, src *ctxmatch.Schema, q Query) (*Report, error) {
	if src == nil || len(src.Tables) == 0 {
		return nil, fmt.Errorf("source %w", ctxmatch.ErrEmptySchema)
	}
	if q.K <= 0 {
		q.K = DefaultK
	}
	if q.MinScore < 0 || q.MinScore >= 1 {
		return nil, fmt.Errorf("%w: match-any min score %v outside [0, 1)", ctxmatch.ErrInvalidOption, q.MinScore)
	}
	report := &Report{}

	var deadline, retrieveDeadline time.Time
	if d, ok := ctx.Deadline(); ok {
		deadline = d
		retrieveDeadline = time.Now().Add(time.Until(d) / retrieveBudgetDiv)
	}

	sf := match.FeaturizeSource(src, budget(f.Entries()))
	var entries []*Entry
	var scores []CatalogScore
	var keys *globalKeys
	// The fused pass reads the unfrozen global dictionary and the slot
	// table, so it runs under the read lock; the exact matches below
	// run on the immutable survivor snapshot outside it.
	if f.mu.TryRLock() {
		entries = f.entriesLocked()
		scores, keys = f.fusedRetrieve(entries, sf, q.K, q.MinScore, retrieveDeadline)
		f.mu.RUnlock()
	} else {
		// A writer holds the fleet — an install, a removal, or a
		// fused-index compaction. Rather than queue behind it into the
		// request's deadline, serve this retrieval from the last
		// published entry snapshot through the per-catalog path, which
		// touches no fused state and returns the same survivors and
		// evidence.
		f.bypasses.Add(1)
		entries = f.Entries()
		scores = retrieve(entries, sf, q.K, q.MinScore, retrieveDeadline)
	}
	report.Retrieval = scores
	report.Considered = len(entries)
	evidence := make(map[string]float64, len(scores))
	for _, cs := range scores {
		switch {
		case cs.Skipped:
			report.skip(cs.Name, ReasonRetrieveBudget, "")
		case cs.Pruned:
			report.Pruned++
		default:
			evidence[cs.Name] = cs.Evidence
		}
	}
	survivors := pickSurvivors(entries, scores, q.K)

	outs := f.matchSurvivors(ctx, src, sf, keys, survivors, deadline)
	for i, e := range survivors {
		o := outs[i]
		switch {
		case o.reason != "":
			report.skip(e.Name, o.reason, "")
		case o.err != nil:
			f.breakerRecord(e.Name, true, time.Now())
			report.skip(e.Name, ReasonError, o.err.Error())
		default:
			f.breakerRecord(e.Name, false, time.Now())
			report.Ranked = append(report.Ranked, CatalogMatch{
				Name:       e.Name,
				Generation: e.Generation,
				Evidence:   evidence[e.Name],
				Score:      aggregateScore(o.res),
				Result:     o.res,
			})
			report.Matched++
		}
	}
	slices.SortStableFunc(report.Ranked, rankCatalogMatches)
	report.Degraded = len(report.Skipped) > 0
	return report, nil
}

// budget is the worker budget a request over entries may use: the
// smallest of their own Parallelism settings, so fanning out never
// exceeds what any one catalog was configured for.
func budget(entries []*Entry) int {
	b := 0
	for _, e := range entries {
		if b == 0 || e.workers < b {
			b = e.workers
		}
	}
	return max(1, b)
}

// survivorOutcome is one survivor's exact-match outcome: a result, an
// isolated failure, or the skip reason it was given up with.
type survivorOutcome struct {
	res    *ctxmatch.Result
	err    error
	reason string
}

// matchSurvivors runs the survivors' exact matches and returns their
// outcomes in survivor order. Admission runs first, in survivor order:
// past the request deadline every remaining survivor is skipped, an
// open breaker skips its catalog, and the "fleet.match" fault point is
// consulted once per admitted catalog. The admitted matches then run
// min(budget, admitted) at a time, budget/concurrent workers each,
// largest catalog (by sample cells) first so the longest match starts
// at once. A match not yet started when the request dies is skipped
// with the deadline or cancellation reason, as is one the death
// interrupted.
func (f *Fleet) matchSurvivors(ctx context.Context, src *ctxmatch.Schema, sf *match.SourceFeatures, keys *globalKeys, survivors []*Entry, deadline time.Time) []survivorOutcome {
	outs := make([]survivorOutcome, len(survivors))
	var admitted []int
	for i, e := range survivors {
		now := time.Now()
		switch {
		case !deadline.IsZero() && !now.Before(deadline):
			outs[i].reason = ReasonDeadline
		case !f.breakerAllow(e.Name, now):
			outs[i].reason = ReasonBreakerOpen
		default:
			if outs[i].err = f.faults.Fail("fleet.match"); outs[i].err == nil {
				admitted = append(admitted, i)
			}
		}
	}
	slices.SortStableFunc(admitted, func(a, b int) int { return survivors[b].cells - survivors[a].cells })
	total := budget(survivors)
	outer := min(total, len(admitted))
	inner := total / max(1, outer)
	match.ForEachIndex(len(admitted), outer, func(n int) {
		i := admitted[n]
		e := survivors[i]
		if err := ctx.Err(); err != nil {
			outs[i].reason = ctxReason(err)
			return
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			outs[i].reason = ReasonDeadline
			return
		}
		mctx := core.WithSourceProjection(ctx, keys.project(sf, e))
		t := e.Target
		if inner != e.workers {
			t = t.WithParallelism(inner)
		}
		outs[i].res, outs[i].err = t.Match(mctx, src)
		if outs[i].err != nil {
			if err := ctx.Err(); err != nil {
				// The request died mid-match: not this catalog's fault,
				// so no error and no breaker record.
				outs[i].err, outs[i].reason = nil, ctxReason(err)
			}
		}
	})
	return outs
}

// ctxReason maps a dead request context to its skip reason.
func ctxReason(err error) string {
	if errors.Is(err, context.Canceled) {
		return ReasonCanceled
	}
	return ReasonDeadline
}

// rankCatalogMatches orders completed survivors best-first: higher
// scores first, ties by name so the ranking is deterministic.
func rankCatalogMatches(a, b CatalogMatch) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}

// aggregateScore reduces a result to the catalog-ranking scalar: the
// sum of the selected matches' confidences, rewarding both per-edge
// quality and coverage. Deterministic because the match itself is.
func aggregateScore(res *ctxmatch.Result) float64 {
	var s float64
	for _, e := range res.Matches {
		s += e.Confidence
	}
	return s
}

// pickSurvivors selects the exact-match set: the top-k non-pruned
// indexed catalogs by (evidence desc, name asc), plus every unindexed
// catalog (no index to prove anything about — they always get the
// exact match). Entries arrive in name order, so the selection is
// deterministic.
func pickSurvivors(entries []*Entry, scores []CatalogScore, k int) []*Entry {
	byName := make(map[string]*Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	var out []*Entry
	taken := 0
	for _, cs := range scores {
		if cs.Pruned || cs.Skipped {
			continue
		}
		if cs.Unindexed {
			out = append(out, byName[cs.Name])
			continue
		}
		if taken < k {
			out = append(out, byName[cs.Name])
			taken++
		}
	}
	return out
}
