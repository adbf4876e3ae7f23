package repository

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/fault"
)

// resultJSON canonicalizes a match result for bit-identity comparison:
// the wall-clock Elapsed is zeroed, everything the matcher decided is
// kept verbatim.
func resultJSON(t *testing.T, res *ctxmatch.Result) string {
	t.Helper()
	c := *res
	c.Elapsed = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	return string(b)
}

// budgets are the worker budgets the degraded-match properties run
// at: 1 matches survivors one after another, 2 and 8 run them
// concurrently (two and four survivors at a time under K = 4).
var budgets = []int{1, 2, 8}

// requireSameSkips asserts every budget's Skipped list equals the
// first one's — same catalogs, same order, same reasons and details.
func requireSameSkips(t *testing.T, byBudget map[int][]SkippedCatalog) {
	t.Helper()
	want, _ := json.Marshal(byBudget[budgets[0]])
	for _, b := range budgets[1:] {
		if got, _ := json.Marshal(byBudget[b]); string(got) != string(want) {
			t.Fatalf("budget %d skipped %s, budget %d skipped %s", b, got, budgets[0], want)
		}
	}
}

// TestDegradedBitIdentical is the acceptance property of degraded
// match-any: with a fault injected into one catalog's exact match, the
// response must carry exactly that catalog in Skipped (reason "error")
// and every completed catalog's Result must be bit-identical to the
// fault-free response restricted to those catalogs — at every worker
// budget, with the same catalog skipped whether survivors run one
// after another or concurrently.
func TestDegradedBitIdentical(t *testing.T) {
	src := sharedFleet(t).datasets["aaron-1"].Source
	skips := map[int][]SkippedCatalog{}
	for _, b := range budgets {
		f := newTestFleet(t, b)
		full, err := f.MatchAny(context.Background(), src, Query{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if full.Degraded || len(full.Skipped) != 0 {
			t.Fatalf("budget %d: fault-free report degraded: %+v", b, full.Skipped)
		}
		fullByName := map[string]string{}
		for _, cm := range full.Ranked {
			fullByName[cm.Name] = resultJSON(t, cm.Result)
		}

		reg := fault.NewRegistry()
		reg.Set("fleet.match", fault.Plan{FailNth: 2})
		f.InjectFaults(reg)

		rep, err := f.MatchAny(context.Background(), src, Query{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Degraded || len(rep.Skipped) != 1 {
			t.Fatalf("budget %d: degraded=%v skipped=%+v, want exactly one skip", b, rep.Degraded, rep.Skipped)
		}
		sk := rep.Skipped[0]
		if sk.Reason != ReasonError || sk.Detail == "" {
			t.Fatalf("budget %d: skip = %+v, want reason %q with detail", b, sk, ReasonError)
		}
		if len(rep.Ranked)+1 != len(full.Ranked) {
			t.Fatalf("budget %d: degraded ranked %d + 1 skip != full ranked %d", b, len(rep.Ranked), len(full.Ranked))
		}
		for _, cm := range rep.Ranked {
			if cm.Name == sk.Name {
				t.Fatalf("budget %d: catalog %s both ranked and skipped", b, cm.Name)
			}
			want, ok := fullByName[cm.Name]
			if !ok {
				t.Fatalf("budget %d: degraded response ranked %s, absent from the full response", b, cm.Name)
			}
			if got := resultJSON(t, cm.Result); got != want {
				t.Errorf("budget %d: catalog %s: degraded result diverged from the full response", b, cm.Name)
			}
		}
		if rep.Matched != len(rep.Ranked) {
			t.Errorf("budget %d: Matched = %d, want %d", b, rep.Matched, len(rep.Ranked))
		}
		skips[b] = rep.Skipped
	}
	requireSameSkips(t, skips)
}

// TestFaultScheduleDeterminism: the same seeded schedule produces the
// same skipped set, run after run and at every worker budget.
func TestFaultScheduleDeterminism(t *testing.T) {
	src := sharedFleet(t).datasets["ryan-1"].Source
	run := func(b int) []SkippedCatalog {
		f := newTestFleet(t, b)
		reg := fault.NewRegistry()
		reg.Set("fleet.match", fault.Plan{FailNth: 2, Every: true})
		f.InjectFaults(reg)
		rep, err := f.MatchAny(context.Background(), src, Query{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Skipped
	}
	skips := map[int][]SkippedCatalog{}
	for _, b := range budgets {
		a, again := run(b), run(b)
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(again)
		if string(aj) != string(bj) {
			t.Fatalf("budget %d: skipped sets diverged across identical runs:\n%s\n%s", b, aj, bj)
		}
		if len(a) == 0 {
			t.Fatalf("budget %d: every-2nd schedule skipped nothing", b)
		}
		skips[b] = a
	}
	requireSameSkips(t, skips)
}

// TestExpiredDeadlineDegrades: a request whose deadline already passed
// gets a degraded 200-style report — every catalog skipped with a
// budget reason — never an error.
func TestExpiredDeadlineDegrades(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["aaron-1"].Source
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	rep, err := f.MatchAny(ctx, src, Query{K: 4})
	if err != nil {
		t.Fatalf("expired deadline returned an error: %v", err)
	}
	if !rep.Degraded || len(rep.Ranked) != 0 {
		t.Fatalf("expired deadline: degraded=%v ranked=%d", rep.Degraded, len(rep.Ranked))
	}
	if len(rep.Skipped) == 0 {
		t.Fatal("expired deadline skipped nothing")
	}
	for _, sk := range rep.Skipped {
		switch sk.Reason {
		case ReasonRetrieveBudget, ReasonDeadline, ReasonCanceled:
		default:
			t.Fatalf("unexpected skip reason %q: %+v", sk.Reason, sk)
		}
	}
}

// TestBreakerLifecycle drives one catalog's breaker through its whole
// arc: failures up to the threshold open it, while open the catalog is
// skipped without a match attempt, after the cooldown a half-open
// trial runs — and a successful trial closes the breaker.
func TestBreakerLifecycle(t *testing.T) {
	f := newTestFleet(t, 1)
	f.SetBreaker(BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond})
	src := sharedFleet(t).datasets["aaron-1"].Source
	reg := fault.NewRegistry()
	reg.Set("fleet.match", fault.Plan{FailNth: 1, Every: true})
	f.InjectFaults(reg)

	skippedReasons := func() map[string]string {
		rep, err := f.MatchAny(context.Background(), src, Query{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, sk := range rep.Skipped {
			out[sk.Name] = sk.Reason
		}
		return out
	}

	// Two failing rounds reach the threshold for every survivor.
	first := skippedReasons()
	if len(first) == 0 {
		t.Fatal("failing round skipped nothing")
	}
	for name, reason := range first {
		if reason != ReasonError {
			t.Fatalf("round 1: %s skipped with %q, want %q", name, reason, ReasonError)
		}
	}
	second := skippedReasons()
	hitsAfterOpen := reg.Hits("fleet.match")

	// Breakers are open: the catalogs are skipped without consulting
	// the match point at all.
	third := skippedReasons()
	for name := range second {
		if third[name] != ReasonBreakerOpen {
			t.Fatalf("round 3: %s skipped with %q, want %q (%v)", name, third[name], ReasonBreakerOpen, third)
		}
	}
	if got := reg.Hits("fleet.match"); got != hitsAfterOpen {
		t.Fatalf("open breaker still attempted matches: hits %d -> %d", hitsAfterOpen, got)
	}
	if f.OpenBreakers() == 0 {
		t.Fatal("OpenBreakers = 0 with open breakers")
	}

	// Past the cooldown the trial runs; with the fault cleared it
	// succeeds and the breaker closes.
	time.Sleep(60 * time.Millisecond)
	reg.Clear("fleet.match")
	rep, err := f.MatchAny(context.Background(), src, Query{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || len(rep.Ranked) == 0 {
		t.Fatalf("post-cooldown trial: degraded=%v ranked=%d", rep.Degraded, len(rep.Ranked))
	}
	if f.OpenBreakers() != 0 {
		t.Fatalf("OpenBreakers = %d after successful trials, want 0", f.OpenBreakers())
	}
}

// TestBreakerReopensOnFailedTrial: a failing half-open trial re-opens
// the breaker for another cooldown.
func TestBreakerReopensOnFailedTrial(t *testing.T) {
	f := newTestFleet(t, 1)
	f.SetBreaker(BreakerConfig{Threshold: 1, Cooldown: 30 * time.Millisecond})
	now := time.Now()
	f.breakerRecord("x", true, now)
	if f.breakerAllow("x", now) {
		t.Fatal("breaker still closed after threshold failures")
	}
	// Cooldown elapsed: the trial is allowed, its failure re-opens.
	later := now.Add(40 * time.Millisecond)
	if !f.breakerAllow("x", later) {
		t.Fatal("half-open trial refused after cooldown")
	}
	f.breakerRecord("x", true, later)
	if f.breakerAllow("x", later.Add(time.Millisecond)) {
		t.Fatal("breaker closed again right after a failed trial")
	}
	// Success closes it for good.
	trial2 := later.Add(40 * time.Millisecond)
	if !f.breakerAllow("x", trial2) {
		t.Fatal("second trial refused")
	}
	f.breakerRecord("x", false, trial2)
	if !f.breakerAllow("x", trial2.Add(time.Nanosecond)) {
		t.Fatal("breaker open after a successful trial")
	}
}

// TestDisabledBreakerNeverOpens: Threshold < 0 turns breakers off.
func TestDisabledBreakerNeverOpens(t *testing.T) {
	f := NewFleet()
	f.SetBreaker(BreakerConfig{Threshold: -1})
	now := time.Now()
	for i := 0; i < 100; i++ {
		f.breakerRecord("x", true, now)
	}
	if !f.breakerAllow("x", now) {
		t.Fatal("disabled breaker opened")
	}
	if f.OpenBreakers() != 0 {
		t.Fatalf("OpenBreakers = %d with breakers disabled", f.OpenBreakers())
	}
}

// TestRemovedClearsBreakerState: eviction drops a catalog's failure
// history, so a re-install starts with a closed breaker.
func TestRemovedClearsBreakerState(t *testing.T) {
	f := newTestFleet(t, 1)
	f.SetBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	now := time.Now()
	f.breakerRecord("aaron-1", true, now)
	if f.breakerAllow("aaron-1", now) {
		t.Fatal("breaker still closed")
	}
	f.Removed("aaron-1")
	if !f.breakerAllow("aaron-1", now) {
		t.Fatal("breaker state survived Removed")
	}
}

// TestCompactionDoesNotBlockMatchAny: with a writer parked on the
// fleet's writer mutex — the worst case of a long install or a
// dictionary rebuild — MatchAny must still answer, from the published
// state, with results identical to an unobstructed call, not time out
// waiting for the writer.
func TestCompactionDoesNotBlockMatchAny(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["aaron-1"].Source

	want, err := f.MatchAny(context.Background(), src, Query{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	f.wmu.Lock()
	done := make(chan *Report, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rep, err := f.MatchAny(ctx, src, Query{K: 3})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	var rep *Report
	select {
	case rep = <-done:
	case <-time.After(10 * time.Second):
		f.wmu.Unlock()
		t.Fatal("MatchAny blocked behind the fleet's writer mutex")
	}
	f.wmu.Unlock()

	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Degraded {
		t.Fatalf("the response under a parked writer degraded: %+v", rep.Skipped)
	}
	gotR, _ := json.Marshal(rep.Retrieval)
	wantR, _ := json.Marshal(want.Retrieval)
	if string(gotR) != string(wantR) {
		t.Fatalf("retrieval under a parked writer diverged:\n got %s\nwant %s", gotR, wantR)
	}
	if len(rep.Ranked) != len(want.Ranked) {
		t.Fatalf("ranked %d under a parked writer, %d without", len(rep.Ranked), len(want.Ranked))
	}
	for i := range rep.Ranked {
		if rep.Ranked[i].Name != want.Ranked[i].Name {
			t.Fatalf("rank %d = %s under a parked writer, %s without", i, rep.Ranked[i].Name, want.Ranked[i].Name)
		}
		if got, w := resultJSON(t, rep.Ranked[i].Result), resultJSON(t, want.Ranked[i].Result); got != w {
			t.Errorf("catalog %s: result under a parked writer diverged", rep.Ranked[i].Name)
		}
	}
}

// TestRemovedBreakerStateStaysRemoved: a match in flight when Removed
// clears its catalog's breaker state must not write that state back
// when it returns, so the catalog's re-install starts with a closed
// breaker as Removed promises — whether the re-install comes after the
// match returns or while it is still running.
func TestRemovedBreakerStateStaysRemoved(t *testing.T) {
	fx := sharedFleet(t)
	for _, reinstallInFlight := range []bool{false, true} {
		f := newTestFleet(t, 1)
		f.SetBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
		src := fx.datasets["aaron-1"].Source
		first, err := f.MatchAny(context.Background(), src, Query{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		name := first.Best().Name

		reg := fault.NewRegistry()
		reg.Set("fleet.match", fault.Plan{FailNth: 1, Latency: 200 * time.Millisecond})
		f.InjectFaults(reg)
		done := make(chan *Report, 1)
		go func() {
			rep, err := f.MatchAny(context.Background(), src, Query{K: 1})
			if err != nil {
				t.Error(err)
			}
			done <- rep
		}()
		// Once the survivor is admitted it sleeps in the fault point, its
		// injected failure not yet recorded: remove the catalog then.
		for reg.Hits("fleet.match") == 0 {
			time.Sleep(time.Millisecond)
		}
		f.Removed(name)
		if reinstallInFlight {
			f.Installed(name, 100, fx.targets[name])
		}
		rep := <-done
		if rep == nil || len(rep.Skipped) != 1 || rep.Skipped[0].Name != name || rep.Skipped[0].Reason != ReasonError {
			t.Fatalf("in-flight match: want %s skipped with %q, got %+v", name, ReasonError, rep)
		}
		if !reinstallInFlight {
			f.Installed(name, 100, fx.targets[name])
		}

		reg.Clear("fleet.match")
		again, err := f.MatchAny(context.Background(), src, Query{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, sk := range again.Skipped {
			if sk.Name == name && sk.Reason == ReasonBreakerOpen {
				t.Fatalf("re-installed in flight %v: %s was skipped as %q, the removed breaker state came back",
					reinstallInFlight, name, sk.Reason)
			}
		}
		if again.Best() == nil || again.Best().Name != name {
			t.Fatalf("re-installed in flight %v: %s did not match: %+v", reinstallInFlight, name, again.Skipped)
		}
	}
}

// breakerRecord records one outcome for name, as MatchAny's
// recordOutcomes does for a survivor the fleet still holds.
func (f *Fleet) breakerRecord(name string, failed bool, now time.Time) {
	f.bmu.Lock()
	defer f.bmu.Unlock()
	f.recordLocked(name, failed, now)
}

// TestErrorsDoNotAbortSiblings: an injected failure on one catalog
// leaves an errors.Is-able detail and the siblings matched — the old
// isolated-failure contract, now expressed through Skipped — at every
// worker budget, always on the same catalog.
func TestErrorsDoNotAbortSiblings(t *testing.T) {
	src := sharedFleet(t).datasets["barrett-2"].Source
	sentinel := errors.New("backend lost")
	skips := map[int][]SkippedCatalog{}
	for _, b := range budgets {
		f := newTestFleet(t, b)
		reg := fault.NewRegistry()
		reg.Set("fleet.match", fault.Plan{FailNth: 1, Err: sentinel})
		f.InjectFaults(reg)

		rep, err := f.MatchAny(context.Background(), src, Query{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Skipped) != 1 || rep.Skipped[0].Detail != sentinel.Error() {
			t.Fatalf("budget %d: skipped = %+v, want one %q detail", b, rep.Skipped, sentinel)
		}
		if len(rep.Ranked) == 0 {
			t.Fatalf("budget %d: sibling catalogs did not survive an isolated failure", b)
		}
		skips[b] = rep.Skipped
	}
	requireSameSkips(t, skips)
}

// TestCanceledMatchAnyLeaksNoGoroutines: cancelling match-any at
// random points — before retrieval, mid-retrieval, while survivors run
// concurrently — degrades the report and leaves no goroutine behind:
// every survivor worker and every match it started has returned by the
// time MatchAny does.
func TestCanceledMatchAnyLeaksNoGoroutines(t *testing.T) {
	f := newTestFleet(t, 8)
	src := sharedFleet(t).datasets["ryan-10k"].Source
	if _, err := f.MatchAny(context.Background(), src, Query{K: 4}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i, delay := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond, 3 * time.Millisecond, 8 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		rep, err := f.MatchAny(ctx, src, Query{K: 4})
		timer.Stop()
		cancel()
		if err != nil {
			t.Fatalf("cancel %d: %v", i, err)
		}
		for _, sk := range rep.Skipped {
			if sk.Reason != ReasonCanceled {
				t.Fatalf("cancel %d: skip reason %q, want %q", i, sk.Reason, ReasonCanceled)
			}
		}
	}
	// Goroutines that already returned may still be exiting; give the
	// scheduler a moment before calling anything a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after canceled match-any calls, %d before", n, before)
	}
}
