// Package fault is a deterministic fault-injection harness.
//
// Production code declares named injection points (e.g. "fs.sync",
// "fleet.match") and consults a *Registry at each one. Tests install
// Plans — seeded, counted schedules such as "fail the 3rd hit", "fail
// every 2nd hit with 10ms latency", or "tear the write after 64 bytes"
// — and the instrumented code fails in exactly the scripted places,
// every run. A nil *Registry is inert and costs one nil check, so
// production binaries pay nothing when no faults are configured.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the default error returned at a firing injection
// point when the Plan does not specify its own Err.
var ErrInjected = errors.New("fault: injected failure")

// Plan is a deterministic failure schedule for one injection point.
// The zero Plan never fires (but still counts hits and applies
// Latency, which is zero by default).
type Plan struct {
	// FailNth fires the fault on the FailNth-th hit of the point
	// (1-based). Zero disables firing.
	FailNth int
	// Every repeats the schedule: the fault fires on every hit whose
	// 1-based index is a multiple of FailNth, not just the first.
	Every bool
	// Latency is slept on every hit of the point, firing or not,
	// before the outcome is decided.
	Latency time.Duration
	// TornAfter applies to "fs.write" points: on a firing hit, this
	// many bytes of the buffer are written through before the error
	// is returned, simulating a torn write / full disk.
	TornAfter int
	// ShortRead applies to "fs.read" points: on a firing hit, at most
	// this many bytes are read through before the error is returned.
	ShortRead int
	// Err is the error injected on a firing hit; nil means
	// ErrInjected.
	Err error
}

func (p Plan) fires(hit int) bool {
	if p.FailNth <= 0 {
		return false
	}
	if p.Every {
		return hit%p.FailNth == 0
	}
	return hit == p.FailNth
}

func (p Plan) err(point string) error {
	if p.Err != nil {
		return p.Err
	}
	return fmt.Errorf("%w at %s", ErrInjected, point)
}

// Registry maps injection points to Plans and counts hits. The zero
// value is an empty registry with no scheduled faults. All methods are
// safe for concurrent use and safe on a nil receiver (where they do
// nothing and never fire).
type Registry struct {
	mu    sync.Mutex
	plans map[string]Plan
	hits  map[string]int
}

// Set installs (or, with the zero Plan, clears the firing schedule
// of) the plan for a point. The hit counter for the point is
// preserved so schedules can be swapped mid-run deterministically.
func (r *Registry) Set(point string, p Plan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.plans == nil {
		r.plans, r.hits = map[string]Plan{}, map[string]int{}
	}
	r.plans[point] = p
}

// Clear removes the plan and hit counter for a point.
func (r *Registry) Clear(point string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.plans, point)
	delete(r.hits, point)
}

// Hits reports how many times a point with an installed plan has been
// consulted. Points without a plan are not counted.
func (r *Registry) Hits(point string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[point]
}

// hit records one consultation of point and reports the active plan
// and whether the fault fires on this hit. Latency has not been
// applied yet; callers go through Fail or the fs wrappers, which
// sleep outside the registry lock.
func (r *Registry) hit(point string) (Plan, bool) {
	if r == nil {
		return Plan{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.plans[point]
	if !ok {
		return Plan{}, false
	}
	r.hits[point]++
	return p, p.fires(r.hits[point])
}

// Fail consults the plan for point, applying its latency, and returns
// the injected error when the schedule fires on this hit, nil
// otherwise. This is the one-line form for code paths that only need
// an error outcome (no torn writes or short reads).
func (r *Registry) Fail(point string) error {
	p, fires := r.hit(point)
	if p.Latency > 0 {
		time.Sleep(p.Latency)
	}
	if !fires {
		return nil
	}
	return p.err(point)
}
