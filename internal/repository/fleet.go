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
// same atomic-swap semantics as the catalog registry: entries and the
// fused index version published with them are immutable, a re-install
// replaces the entry atomically, and in-flight retrievals finish on the
// state they already loaded, so an eviction mid-retrieval never fails
// a request and no retrieval waits for a writer.
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
	// pos is the catalog's slot position in the fused index version
	// published with the entry, -1 for a catalog without a candidate
	// index — one holding no string column, which cannot be scored
	// cheaply and therefore always survives retrieval.
	pos int
	// lineage names the install the entry descends from: a re-install
	// keeps it, an install after a removal draws a new one.
	lineage uint64
	// workers is the handle's own worker budget; cells sizes its sample
	// (rows × attributes over its tables), the input property the
	// survivor fan-out dispatches largest-first by.
	workers, cells int
}

// fleetState is what one publish makes visible: the entries in
// ascending name order — the deterministic base order of every
// retrieval — and the fused index version their slot positions refer
// to.
type fleetState struct {
	entries []*Entry
	fused   *tokenize.FusedIndex
}

// find returns the position of name in the entries, or where it would
// be inserted, and whether it is there.
func (st *fleetState) find(name string) (int, bool) {
	return slices.BinarySearchFunc(st.entries, name, func(e *Entry, name string) int {
		return strings.Compare(e.Name, name)
	})
}

// holds reports whether the state still holds e's catalog from the same
// install: not removed since e was published, whatever re-installs
// replaced it.
func (st *fleetState) holds(e *Entry) bool {
	i, ok := st.find(e.Name)
	return ok && st.entries[i].lineage == e.lineage
}

// Fleet is the cross-catalog retrieval index: the set of installed
// catalog entries plus the registry-global fused index over their
// candidate indexes, kept consistent with the owning registry through
// Installed/Removed. All methods are safe for concurrent use. Readers
// take no lock: they load the published state, whose entries and fused
// index version never change. Installed and Removed derive the next
// state off to the side, under a mutex only writers take, and publish
// it with one atomic store.
type Fleet struct {
	state atomic.Pointer[fleetState]

	// wmu serializes the writers; fw, which derives the fused index
	// versions, and lineages are theirs.
	wmu      sync.Mutex
	fw       *tokenize.FusedWriter
	lineages uint64

	// probes and boundSkips count fused bound passes and catalog-columns
	// skipped on the bound alone over the fleet's lifetime: kept here,
	// outside every version, they only grow (see FusedStats).
	probes, boundSkips atomic.Int64

	// faults, when non-nil, is consulted at the "fleet.match" point
	// before each per-catalog exact match. Set before serving traffic.
	faults *fault.Registry

	bmu     sync.Mutex
	breaker BreakerConfig
	bstate  map[string]*breakerState
}

// NewFleet returns an empty fleet with default circuit-breaker tuning.
func NewFleet() *Fleet {
	f := &Fleet{
		fw:      tokenize.NewFusedWriter(),
		breaker: BreakerConfig{}.normalize(),
		bstate:  map[string]*breakerState{},
	}
	f.state.Store(&fleetState{fused: f.fw.Index()})
	return f
}

// InjectFaults installs a fault-injection registry consulted at the
// "fleet.match" point before every per-catalog exact match. A nil
// registry (the default) injects nothing. Call before serving traffic.
func (f *Fleet) InjectFaults(reg *fault.Registry) { f.faults = reg }

// Installed publishes (or atomically replaces) the entry for name,
// together with a fused index version holding its candidate index —
// at its old slot position when it replaces an indexed entry. It is
// called for every registry install — prepare, re-prepare, PATCH delta
// swap and snapshot restore — under the registry's own lock, so the
// fleet's view is linearized with the registry's.
func (f *Fleet) Installed(name string, generation int, t *ctxmatch.Target) {
	e := &Entry{
		Name:       name,
		Generation: generation,
		Target:     t,
		feats:      t.Prepared().Features(),
		pos:        -1,
		workers:    max(1, t.Prepared().Options().Parallelism),
	}
	for _, tt := range t.Schema().Tables {
		e.cells += len(tt.Rows) * len(tt.Attrs)
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	st := f.state.Load()
	i, found := st.find(name)
	oldPos := -1
	if found {
		oldPos, e.lineage = st.entries[i].pos, st.entries[i].lineage
	} else {
		f.lineages++
		e.lineage = f.lineages
	}
	fused := st.fused
	if ix := e.feats.Index(); ix != nil {
		if e.pos = oldPos; e.pos < 0 {
			e.pos = fused.Free()
		}
		fused = f.fw.Set(e.pos, e.feats.Dict(), ix)
	} else if oldPos >= 0 {
		fused = f.fw.Set(oldPos, nil, nil)
	}
	entries := slices.Clone(st.entries)
	if found {
		entries[i] = e
	} else {
		entries = slices.Insert(entries, i, e)
	}
	f.state.Store(&fleetState{entries: entries, fused: fused})
}

// Removed drops name's entry — LRU eviction or explicit deletion — and
// frees its fused-index slot. Retrievals that already loaded the
// previous state finish on it; the prepared handle stays valid for
// them, exactly as registry readers finish on an evicted handle.
func (f *Fleet) Removed(name string) {
	f.wmu.Lock()
	st := f.state.Load()
	if i, found := st.find(name); found {
		fused := st.fused
		if pos := st.entries[i].pos; pos >= 0 {
			fused = f.fw.Set(pos, nil, nil)
		}
		entries := slices.Delete(slices.Clone(st.entries), i, i+1)
		f.state.Store(&fleetState{entries: entries, fused: fused})
	}
	f.wmu.Unlock()
	// An evicted catalog's failure history goes with it; a future
	// re-install starts with a closed breaker. The state is cleared
	// after the removal is published (see recordOutcomes).
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

// FusedStats sizes the published fused index version and reports the
// fleet's lifetime bound-pass counters.
func (f *Fleet) FusedStats() tokenize.FusedStats {
	st := f.state.Load().fused.Stats()
	st.Probes, st.BoundSkips = f.probes.Load(), f.boundSkips.Load()
	return st
}

// Entries returns the installed catalogs in ascending name order, from
// the published state.
func (f *Fleet) Entries() []*Entry { return f.state.Load().entries }

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

// recordOutcomes feeds the survivors' exact-match outcomes into their
// breakers: success closes one, the Threshold-th consecutive failure
// opens it for the cooldown (and a failed half-open trial re-opens
// it). Skipped survivors record nothing, and neither does a catalog
// the published state no longer holds from the same install: a match
// in flight across a Removed must not write back the history Removed
// cleared for a future re-install. The check runs under bmu, and
// Removed clears the history under bmu after publishing, so a removal
// cannot slip in between check and record.
func (f *Fleet) recordOutcomes(survivors []*Entry, outs []survivorOutcome) {
	now := time.Now()
	f.bmu.Lock()
	defer f.bmu.Unlock()
	st := f.state.Load()
	for i, e := range survivors {
		if outs[i].reason == "" && st.holds(e) {
			f.recordLocked(e.Name, outs[i].err != nil, now)
		}
	}
}

// recordLocked feeds one outcome into name's breaker. The caller holds
// bmu.
func (f *Fleet) recordLocked(name string, failed bool, now time.Time) {
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

// Bypasses returns 0. It counted retrievals that fell back to a
// per-catalog path because a writer held the fleet lock; retrievals no
// longer take a lock, so none falls back. It stays for callers that
// read it.
func (f *Fleet) Bypasses() int64 { return 0 }

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

// retrieveBudgetDiv is the retrieval stage's share of the remaining
// request deadline: 1/retrieveBudgetDiv of it, the rest reserved for
// the exact matches (the expensive stage).
const retrieveBudgetDiv = 4

// MatchAny answers "which catalogs does this source match, and where?":
// it retrieves the top-k candidate catalogs by indexed evidence (see
// the package comment for the pruning invariants), runs the exact
// prepared match on each survivor, and ranks the outcomes.
//
// MatchAny never waits for a writer: it loads the published state once,
// without a lock, and runs retrieval and the exact matches on it,
// however the fleet changes meanwhile (the circuit breakers keep their
// own short mutex, which no install takes). The source is tokenized
// once, up front; retrieval keys that one tokenization into the fused
// index's global IDs, and each survivor's match receives its
// projection into the catalog's own ID space instead of re-tokenizing
// the source. The survivors' exact matches then share the worker
// budget — the smallest of the survivors' own Parallelism — as
// min(budget, survivors) concurrent matches of budget/concurrent
// workers each, largest catalog first. Outcomes assemble in survivor
// order, so the report is the same at any budget.
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

	st := f.state.Load()
	sf := match.FeaturizeSource(src, budget(st.entries))
	scores, keys := f.fusedRetrieve(st, sf, q.K, q.MinScore, retrieveDeadline)
	report.Retrieval = scores
	report.Considered = len(st.entries)
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
	survivors := pickSurvivors(st.entries, scores, q.K)

	outs := f.matchSurvivors(ctx, src, sf, keys, survivors, deadline)
	f.recordOutcomes(survivors, outs)
	for i, e := range survivors {
		o := outs[i]
		switch {
		case o.reason != "":
			report.skip(e.Name, o.reason, "")
		case o.err != nil:
			report.skip(e.Name, ReasonError, o.err.Error())
		default:
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
