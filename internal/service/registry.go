package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ctxmatch"
)

// Registry is a named collection of prepared target catalogs backed by
// one shared Matcher. Preparation (the expensive part — classifier
// training, column scans) always runs outside the registry lock; the
// lock guards only the name → handle map and its LRU order, so match
// traffic is never blocked behind a Prepare and re-preparing a name is
// an atomic pointer swap: in-flight readers keep the immutable handle
// they already fetched and finish on it, per the library's aliasing
// rule.
//
// Beyond its capacity (NewRegistry's cap, the daemon's -max-catalogs),
// the least-recently-used prepared catalog is evicted and its cached
// artifacts dropped from the Matcher. "Use" is a match or a
// (re-)prepare; listing does not touch recency.
type Registry struct {
	matcher *ctxmatch.Matcher
	cap     int

	// obs are notified of every install and removal, inside the
	// registry lock, so an observer's view is linearized with the
	// registry's own: it sees exactly the sequence of mutations, in
	// order, with no window where the two disagree. Registered before
	// traffic via Observe; callbacks must not call back into the
	// registry.
	obs []Observer

	mu      sync.Mutex
	entries map[string]*catalogEntry
	order   []string // LRU order, least recently used first
	// gens counts preparations per name for the whole registry
	// lifetime, surviving eviction and deletion, so a re-uploaded
	// catalog's Generation never goes backwards.
	gens map[string]int
	// updMu serializes Update calls per name (outside the registry
	// lock), so two concurrent deltas compose — the second derives from
	// the first's result — instead of both deriving from the same base
	// and the last install silently dropping one. persistMu serializes
	// the server's snapshot persists per name (see persistCurrent).
	// Entries are tiny and live for the registry's lifetime.
	updMu, persistMu map[string]*sync.Mutex
}

// Observer is notified of registry mutations: every publish of a
// prepared handle under a name (prepare, re-prepare, snapshot install)
// and every removal (LRU eviction, explicit delete). Callbacks run
// under the registry lock, so an observer sees mutations in registry
// order; they must be fast and must not re-enter the registry. The
// fleet retrieval index is the canonical observer: it derives its next
// state off to the side and publishes it with one atomic store, so a
// callback never waits for a match-any in flight, and no match-any
// waits for a callback.
type Observer interface {
	Installed(name string, generation int, t *ctxmatch.Target)
	Removed(name string)
}

// Observe registers o for mutation callbacks. Call before traffic
// starts; observers cannot be removed.
func (r *Registry) Observe(o Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = append(r.obs, o)
}

type catalogEntry struct {
	target *ctxmatch.Target
	info   CatalogInfo
	// dirty marks a generation whose persisted snapshot (when the server
	// keeps one — see Config.SnapshotDir) does not yet reflect this
	// handle; the drain-time flush writes exactly the dirty entries.
	dirty bool
}

// NewRegistry builds a registry around m holding at most cap prepared
// catalogs; cap < 1 means 1.
func NewRegistry(m *ctxmatch.Matcher, cap int) *Registry {
	if cap < 1 {
		cap = 1
	}
	return &Registry{
		matcher: m,
		cap:     cap,
		entries: map[string]*catalogEntry{},
		gens:    map[string]int{},

		updMu:     map[string]*sync.Mutex{},
		persistMu: map[string]*sync.Mutex{},
	}
}

// nameLock returns the mutex locks holds for name, creating it.
func (r *Registry) nameLock(locks map[string]*sync.Mutex, name string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	mu := locks[name]
	if mu == nil {
		mu = &sync.Mutex{}
		locks[name] = mu
	}
	return mu
}

// Update applies a catalog delta to name's current handle and installs
// the result as a new generation with Install's atomic-swap semantics:
// observers are notified, the entry is marked dirty for the drain-time
// snapshot flush, and in-flight matches finish on the old handle. The
// incremental rebuild runs outside the registry lock; updates to one
// name are serialized against each other so concurrent deltas compose.
// found is false when the name is not installed; err carries
// ctxmatch.ErrInvalidDelta (and friends) from the delta application.
func (r *Registry) Update(ctx context.Context, name string, delta ctxmatch.CatalogDelta) (info CatalogInfo, evicted []string, found bool, err error) {
	mu := r.nameLock(r.updMu, name)
	mu.Lock()
	defer mu.Unlock()

	t, ok := r.Get(name)
	if !ok {
		return CatalogInfo{}, nil, false, nil
	}
	nt, err := t.Update(ctx, delta)
	if err != nil {
		return CatalogInfo{}, nil, true, err
	}
	info, evicted, _ = r.Install(name, nt)
	return info, evicted, true, nil
}

// Prepare prepares schema and installs it under name, replacing any
// previous generation atomically. It returns the new catalog's info,
// the names evicted to make room, and whether the name already existed.
// When two Prepares for one name race, the last to finish wins — both
// handles are valid, and readers that fetched the loser simply finish
// on it.
func (r *Registry) Prepare(ctx context.Context, name string, schema *ctxmatch.Schema) (info CatalogInfo, evicted []string, replaced bool, err error) {
	// The expensive part, outside the lock.
	t, err := r.matcher.Prepare(ctx, schema)
	if err != nil {
		return CatalogInfo{}, nil, false, err
	}
	info, evicted, replaced = r.Install(name, t)
	return info, evicted, replaced, nil
}

// Install publishes an externally built handle — typically one restored
// from a snapshot by ctxmatch.LoadTarget — under name, with the same
// replace/evict/generation semantics as Prepare but no preparation
// cost. The new entry starts dirty (its snapshot persistence, if any,
// is pending); callers that know the handle is already on disk clear
// that with MarkClean.
func (r *Registry) Install(name string, t *ctxmatch.Target) (info CatalogInfo, evicted []string, replaced bool) {
	st := t.Stats()

	r.mu.Lock()
	old := r.entries[name]
	r.gens[name]++
	gen := r.gens[name]
	info = CatalogInfo{
		Name:                 name,
		Generation:           gen,
		PreparedAt:           time.Now().UTC(),
		PreparedNS:           st.PreparedIn.Nanoseconds(),
		Tables:               st.Tables,
		Rows:                 st.Rows,
		Attributes:           st.Attributes,
		Classifiers:          st.Classifiers,
		FeatureColumns:       st.FeatureColumns,
		DictGrams:            st.DictGrams,
		DictBytes:            st.DictBytes,
		IndexPostings:        st.IndexPostings,
		IndexBytes:           st.IndexBytes,
		IndexHitRate:         st.IndexHitRate,
		SnapshotBytes:        st.SnapshotBytes,
		RestoredFromSnapshot: st.RestoredFromSnapshot,
		Matches:              st.Matches,
	}
	r.entries[name] = &catalogEntry{target: t, info: info, dirty: true}
	r.touchLocked(name)
	for _, o := range r.obs {
		o.Installed(name, gen, t)
	}
	var forget []*ctxmatch.Schema
	for len(r.entries) > r.cap {
		victim := r.order[0]
		r.order = r.order[1:]
		forget = append(forget, r.entries[victim].target.Schema())
		delete(r.entries, victim)
		evicted = append(evicted, victim)
		for _, o := range r.obs {
			o.Removed(victim)
		}
	}
	r.mu.Unlock()

	// Drop cached artifacts outside the lock: the replaced generation's
	// (each upload parses a fresh schema object, so the old one can
	// never be re-Prepared) and the evicted catalogs'. Handles already
	// fetched by in-flight readers pin their own artifacts and are
	// unaffected. For a restored handle (whose artifacts live on its own
	// private matcher) the Forget is a harmless no-op.
	if old != nil {
		replaced = true
		r.matcher.Forget(old.target.Schema())
	}
	for _, s := range forget {
		r.matcher.Forget(s)
	}
	return info, evicted, replaced
}

// Dirty returns the current handles whose snapshot persistence is
// pending, keyed by registry name.
func (r *Registry) Dirty() map[string]*ctxmatch.Target {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]*ctxmatch.Target{}
	for name, e := range r.entries {
		if e.dirty {
			out[name] = e.target
		}
	}
	return out
}

// Pending returns name's current handle and whether its snapshot
// persistence is pending, without touching recency; a missing name is
// not pending.
func (r *Registry) Pending(name string) (*ctxmatch.Target, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e.target, e.dirty
	}
	return nil, false
}

// MarkClean records that name's snapshot persistence is done, but only
// if its current handle is still t — a flush racing a re-prepare must
// never mark the newer generation clean.
func (r *Registry) MarkClean(name string, t *ctxmatch.Target) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok && e.target == t {
		e.dirty = false
	}
}

// Get returns the current handle for name and marks it recently used.
func (r *Registry) Get(name string) (*ctxmatch.Target, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	r.touchLocked(name)
	return e.target, true
}

// Delete removes name from the registry, dropping its cached artifacts.
// It reports whether the name existed.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	e, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
		r.removeLocked(name)
		for _, o := range r.obs {
			o.Removed(name)
		}
	}
	r.mu.Unlock()
	if ok {
		r.matcher.Forget(e.target.Schema())
	}
	return ok
}

// List returns the prepared catalogs' info, most recently used first,
// without touching recency. The static artifact sizes were memoized at
// install time (once per generation); only the index hit rate and match
// count are refreshed from the live handle, and both are O(1) atomic
// reads — a metrics scrape or listing never walks a catalog's
// dictionary or rows.
func (r *Registry) List() []CatalogInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CatalogInfo, 0, len(r.entries))
	for i := len(r.order) - 1; i >= 0; i-- {
		e := r.entries[r.order[i]]
		info := e.info
		ls := e.target.LiveStats()
		info.IndexHitRate = ls.IndexHitRate
		info.Matches = ls.Matches
		out = append(out, info)
	}
	return out
}

// Len returns how many catalogs are currently prepared.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// touchLocked moves name to the most-recently-used end of the order.
func (r *Registry) touchLocked(name string) {
	r.removeLocked(name)
	r.order = append(r.order, name)
}

func (r *Registry) removeLocked(name string) {
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// String renders the registry compactly for logs.
func (r *Registry) String() string {
	return fmt.Sprintf("registry(%d/%d catalogs)", r.Len(), r.cap)
}
