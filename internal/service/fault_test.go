package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/fault"
)

// scrapeMetric reads one un-labeled metric family's value from
// GET /metrics.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestTornWritePreservesOldSnapshot is the crash-safety satellite: a
// torn write (and separately a failed fsync) during an eager persist
// must leave the previous snapshot bytes on disk intact and the entry
// dirty for the drain-time flush — never a torn or zero-length file
// under the final name. A persist streams the snapshot in several
// writes, so the tear lands after bytes have already reached the temp
// file.
func TestTornWritePreservesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	ts, svc := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Faults = reg
	})
	cat1, _ := fixtureDocs(t, 1)
	cat2, _ := fixtureDocs(t, 2)
	reg.Set("fs.write", fault.Plan{}) // counts writes, never fires
	if status, _ := putCatalog(t, ts, "inv", cat1); status != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	if n := reg.Hits("fs.write"); n < 2 {
		t.Fatalf("a clean persist issued %d writes, want at least 2", n)
	}
	path := snapshotPath(dir, "inv")
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}

	// Tear the next persist's second write: the re-prepare succeeds
	// (persist failures never fail an upload) but the persist is
	// deferred.
	reg.Clear("fs.write")
	reg.Set("fs.write", fault.Plan{FailNth: 2, TornAfter: 32})
	if status, _ := putCatalog(t, ts, "inv", cat2); status != http.StatusOK {
		t.Fatal("re-PUT failed")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot vanished after torn write: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("torn write reached the published snapshot")
	}
	if _, err := ctxmatch.LoadTarget(bytes.NewReader(got)); err != nil {
		t.Fatalf("surviving snapshot does not load: %v", err)
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, ".snap-*")); len(stale) != 0 {
		t.Fatalf("torn write left temp litter: %v", stale)
	}
	if n := reg.Hits("fs.write"); n != 2 {
		t.Fatalf("torn persist issued %d writes, want it to stop at the torn second", n)
	}
	if d := svc.Registry().Dirty(); len(d) != 1 {
		t.Fatalf("dirty = %v, want the torn catalog", d)
	}

	// The drain-time flush lands the new generation once the disk heals.
	reg.Clear("fs.write")
	if err := svc.FlushSnapshots(); err != nil {
		t.Fatalf("FlushSnapshots: %v", err)
	}
	flushed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(flushed, old) {
		t.Fatal("flush did not replace the stale snapshot")
	}
	if _, err := ctxmatch.LoadTarget(bytes.NewReader(flushed)); err != nil {
		t.Fatalf("flushed snapshot does not load: %v", err)
	}

	// A failed fsync is handled exactly like a torn write: the rename
	// never runs, the published bytes stay whole.
	reg.Set("fs.sync", fault.Plan{FailNth: 1})
	if status, _ := putCatalog(t, ts, "inv", cat1); status != http.StatusOK {
		t.Fatal("third PUT failed")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, flushed) {
		t.Fatal("failed fsync still replaced the published snapshot")
	}
}

// TestWarmRestartMatrix is the restore matrix satellite: over
// {truncated, bit-flipped, zero-length, valid} snapshot files the
// daemon must come up serving every valid catalog, answer 503 only
// while loading, quarantine every invalid file, clean temp litter, and
// never panic or load corrupt bytes.
func TestWarmRestartMatrix(t *testing.T) {
	dir := t.TempDir()
	seedTS, _ := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	catA, srcDoc := fixtureDocs(t, 1)
	catB, _ := fixtureDocs(t, 5)
	if status, _ := putCatalog(t, seedTS, "alpha", catA); status != http.StatusCreated {
		t.Fatal("PUT alpha failed")
	}
	if status, _ := putCatalog(t, seedTS, "beta", catB); status != http.StatusCreated {
		t.Fatal("PUT beta failed")
	}
	valid, err := os.ReadFile(snapshotPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}

	// The invalid corner of the matrix, all derived from real bytes.
	trunc := valid[:len(valid)*3/5]
	bitflip := bytes.Clone(valid)
	bitflip[len(bitflip)/2] ^= 0x40
	matrix := map[string][]byte{
		"trunc":   trunc,
		"bitflip": bitflip,
		"zero":    {},
	}
	for name, data := range matrix {
		if err := os.WriteFile(snapshotPath(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Temp litter from a write a crash interrupted.
	litter := filepath.Join(dir, ".snap-12345")
	if err := os.WriteFile(litter, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	ts, svc := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	svc.BeginWarmRestart()
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while loading = %d, want 503", resp.StatusCode)
	}
	n, err := svc.RestoreSnapshots()
	if err != nil {
		t.Fatalf("RestoreSnapshots: %v", err)
	}
	svc.FinishWarmRestart()
	if n != 2 {
		t.Fatalf("restored %d catalogs, want the 2 valid ones", n)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after restore = %d, want 200", resp.StatusCode)
	}

	for name := range matrix {
		if _, err := os.Stat(snapshotPath(dir, name)); !os.IsNotExist(err) {
			t.Errorf("invalid snapshot %q still in the restore set: %v", name, err)
		}
		if _, err := os.Stat(snapshotPath(dir, name) + corruptSuffix); err != nil {
			t.Errorf("invalid snapshot %q not quarantined: %v", name, err)
		}
	}
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Errorf("temp litter survived the restart: %v", err)
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_snapshot_quarantined_total"); got != 3 {
		t.Errorf("quarantined_total = %v, want 3", got)
	}
	if infos := svc.Registry().List(); len(infos) != 2 {
		t.Fatalf("registry holds %d catalogs, want 2: %+v", len(infos), infos)
	}

	// The restored fleet serves: a match-any touches both catalogs, no
	// 5xx, no degradation.
	status, out, body := postMatchAny(t, ts, MatchAnyRequest{Source: srcDoc, K: 2})
	if status != http.StatusOK {
		t.Fatalf("match-any after matrix restore = %d: %s", status, body)
	}
	if out.Degraded || out.Considered != 2 {
		t.Fatalf("match-any after restore: degraded=%v considered=%d", out.Degraded, out.Considered)
	}

	// A second restart over the already-quarantined directory is clean:
	// nothing new to quarantine, both catalogs again.
	_, svc2 := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if n, err := svc2.RestoreSnapshots(); err != nil || n != 2 {
		t.Fatalf("second restore = %d, %v; want 2, nil", n, err)
	}
}

// TestShortReadQuarantines: a restore whose read fails part-way — an
// injected short read under the injecting filesystem, which sizes the
// read from Stat like the real one — quarantines the file rather than
// installing a catalog from a prefix.
func TestShortReadQuarantines(t *testing.T) {
	dir := t.TempDir()
	seedTS, _ := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	cat, _ := fixtureDocs(t, 1)
	if status, _ := putCatalog(t, seedTS, "inv", cat); status != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	path := snapshotPath(dir, "inv")

	reg := fault.NewRegistry()
	reg.Set("fs.read", fault.Plan{FailNth: 1, ShortRead: 100})
	_, svc := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Faults = reg
	})
	if n, err := svc.RestoreSnapshots(); err != nil || n != 0 {
		t.Fatalf("restore under a short read = %d, %v; want 0, nil", n, err)
	}
	if reg.Hits("fs.read") == 0 {
		t.Fatal("the restore never read through the injecting filesystem")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("short-read snapshot still in the restore set: %v", err)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("short-read snapshot not quarantined: %v", err)
	}
	if _, ok := svc.Registry().Get("inv"); ok {
		t.Error("a catalog was installed from a short read")
	}
}

// TestDeleteRemovesQuarantinedSibling: DELETE must clear the *.corrupt
// sibling along with the snapshot, and LRU eviction must clear the
// sibling while keeping the healthy snapshot for a cheap re-restore.
func TestDeleteRemovesQuarantinedSibling(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	cat, _ := fixtureDocs(t, 1)
	if status, _ := putCatalog(t, ts, "inv", cat); status != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	corrupt := snapshotPath(dir, "inv") + corruptSuffix
	if err := os.WriteFile(corrupt, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/catalogs/inv", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(snapshotPath(dir, "inv")); !os.IsNotExist(err) {
		t.Errorf("snapshot survived DELETE: %v", err)
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Errorf("quarantined sibling survived DELETE: %v", err)
	}
}

func TestEvictionRemovesQuarantinedSibling(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.MaxCatalogs = 1
	})
	catA, _ := fixtureDocs(t, 1)
	catB, _ := fixtureDocs(t, 2)
	if status, _ := putCatalog(t, ts, "old", catA); status != http.StatusCreated {
		t.Fatal("PUT old failed")
	}
	corrupt := snapshotPath(dir, "old") + corruptSuffix
	if err := os.WriteFile(corrupt, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: this PUT evicts "old".
	if status, _ := putCatalog(t, ts, "new", catB); status != http.StatusCreated {
		t.Fatal("PUT new failed")
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Errorf("quarantined sibling survived eviction: %v", err)
	}
	// The healthy snapshot is kept: eviction is capacity management,
	// not deletion, and the file warm-restores the catalog cheaply.
	if _, err := os.Stat(snapshotPath(dir, "old")); err != nil {
		t.Errorf("healthy snapshot of evicted catalog removed: %v", err)
	}
}

// wireResultJSON canonicalizes a decoded wire Result for bit-identity
// comparison (the wall-clock elapsed_ns is zeroed).
func wireResultJSON(t *testing.T, res *ctxmatch.Result) string {
	t.Helper()
	c := *res
	c.Elapsed = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMatchAnyDegradedOverHTTP is the serving half of the acceptance
// property: with a fault injected into one catalog's match, POST
// /v1/match-any answers 200 with degraded:true, the skipped catalog
// listed with a reason, and every completed catalog's result
// bit-identical to the fault-free response — never a 5xx.
func TestMatchAnyDegradedOverHTTP(t *testing.T) {
	reg := fault.NewRegistry()
	ts, _ := newTestServer(t, func(c *Config) { c.Faults = reg })
	src := putFleet(t, ts, 3)

	status, full, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 3})
	if status != http.StatusOK {
		t.Fatalf("clean match-any = %d: %s", status, body)
	}
	if full.Degraded || len(full.Skipped) != 0 {
		t.Fatalf("clean response degraded: %+v", full.Skipped)
	}
	fullByName := map[string]string{}
	for _, mc := range full.Catalogs {
		fullByName[mc.Name] = wireResultJSON(t, mc.Result)
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_degraded_total"); got != 0 {
		t.Fatalf("degraded_total = %v before any fault", got)
	}

	reg.Set("fleet.match", fault.Plan{FailNth: 2})
	status, out, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 3})
	if status != http.StatusOK {
		t.Fatalf("degraded match-any = %d, want 200: %s", status, body)
	}
	if !out.Degraded || len(out.Skipped) != 1 {
		t.Fatalf("degraded=%v skipped=%+v, want one skip", out.Degraded, out.Skipped)
	}
	if out.Skipped[0].Reason != "error" || out.Skipped[0].Detail == "" {
		t.Fatalf("skip = %+v, want reason \"error\" with detail", out.Skipped[0])
	}
	if len(out.Catalogs)+1 != len(full.Catalogs) {
		t.Fatalf("degraded completed %d + 1 skip != clean %d", len(out.Catalogs), len(full.Catalogs))
	}
	for _, mc := range out.Catalogs {
		if mc.Name == out.Skipped[0].Name {
			t.Fatalf("catalog %s both completed and skipped", mc.Name)
		}
		if wireResultJSON(t, mc.Result) != fullByName[mc.Name] {
			t.Errorf("catalog %s: degraded result diverged from the clean response", mc.Name)
		}
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_degraded_total"); got != 1 {
		t.Errorf("degraded_total = %v, want 1", got)
	}
}

// TestBreakerOverHTTP: repeated per-catalog failures open the circuit
// breaker; further requests skip the catalog without attempting the
// match, the skip reason says so, and the ctxmatchd_breaker_open gauge
// reports it.
func TestBreakerOverHTTP(t *testing.T) {
	reg := fault.NewRegistry()
	ts, _ := newTestServer(t, func(c *Config) {
		c.Faults = reg
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Hour
	})
	src := putFleet(t, ts, 1)
	reg.Set("fleet.match", fault.Plan{FailNth: 1, Every: true})

	for i := 0; i < 2; i++ {
		status, out, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 1})
		if status != http.StatusOK {
			t.Fatalf("failing round %d = %d: %s", i, status, body)
		}
		if len(out.Skipped) != 1 || out.Skipped[0].Reason != "error" {
			t.Fatalf("failing round %d skipped = %+v", i, out.Skipped)
		}
	}
	hits := reg.Hits("fleet.match")
	status, out, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 1})
	if status != http.StatusOK {
		t.Fatalf("breaker round = %d: %s", status, body)
	}
	if len(out.Skipped) != 1 || out.Skipped[0].Reason != "breaker_open" {
		t.Fatalf("breaker round skipped = %+v, want breaker_open", out.Skipped)
	}
	if got := reg.Hits("fleet.match"); got != hits {
		t.Fatalf("open breaker still attempted the match: hits %d -> %d", hits, got)
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_breaker_open"); got != 1 {
		t.Errorf("breaker_open gauge = %v, want 1", got)
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_degraded_total"); got != 3 {
		t.Errorf("degraded_total = %v, want 3", got)
	}
}

// TestNoGoroutineLeakAfterDrain: a served-and-drained daemon must
// return to its goroutine baseline — handlers, timeouts and the
// in-flight semaphore own no goroutines once the listener closes.
func TestNoGoroutineLeakAfterDrain(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	runtime.GC()
	base := runtime.NumGoroutine()

	catDoc, srcDoc := fixtureDocs(t, 1)
	ts, svc := newTestServer(t, nil)
	if status, _ := putCatalog(t, ts, "inv", catDoc); status != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	for i := 0; i < 3; i++ {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/catalogs/inv/match",
			map[string]any{"source": srcDoc})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	if status, _, body := postMatchAny(t, ts, MatchAnyRequest{Source: srcDoc}); status != http.StatusOK {
		t.Fatalf("match-any = %d: %s", status, body)
	}
	if err := svc.FlushSnapshots(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		// +2 tolerates runtime-internal goroutines (GC workers, netpoll)
		// that come and go; a real handler leak holds well above that.
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d above baseline %d after drain:\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestReplicatorRetries: the replication client retries transport
// blips, 5xx and 429 (honoring Retry-After) with bounded backoff, and
// gives up conclusively on a real 4xx.
func TestReplicatorRetries(t *testing.T) {
	var gets, puts int
	payload := []byte("snapshot-bytes")
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			gets++
			switch gets {
			case 1:
				w.WriteHeader(http.StatusInternalServerError)
			case 2:
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
			default:
				w.Write(payload)
			}
		case http.MethodPut:
			puts++
			body, _ := io.ReadAll(r.Body)
			if !bytes.Equal(body, payload) {
				t.Errorf("push body = %q, want %q (attempt %d)", body, payload, puts)
			}
			if puts < 3 {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer peer.Close()

	rp := &Replicator{Base: peer.URL, Backoff: time.Millisecond}
	got, err := rp.Pull(context.Background(), "inv")
	if err != nil {
		t.Fatalf("Pull: %v", err)
	}
	if !bytes.Equal(got, payload) || gets != 3 {
		t.Fatalf("Pull = %q after %d attempts, want %q after 3", got, gets, payload)
	}
	if err := rp.Push(context.Background(), "inv", payload); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if puts != 3 {
		t.Fatalf("Push took %d attempts, want 3", puts)
	}

	// A real 4xx is conclusive: one attempt, no retry loop.
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets++
		w.WriteHeader(http.StatusNotFound)
	}))
	defer notFound.Close()
	gets = 0
	rp2 := &Replicator{Base: notFound.URL, Backoff: time.Millisecond}
	if _, err := rp2.Pull(context.Background(), "inv"); err == nil {
		t.Fatal("Pull of a missing catalog succeeded")
	}
	if gets != 1 {
		t.Fatalf("404 Pull took %d attempts, want 1", gets)
	}
}

// TestReplicatorExhaustsAttempts: a peer that never recovers exhausts
// the attempt budget and reports the last failure.
func TestReplicatorExhaustsAttempts(t *testing.T) {
	var calls int
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer peer.Close()
	rp := &Replicator{Base: peer.URL, Attempts: 3, Backoff: time.Millisecond}
	_, err := rp.Pull(context.Background(), "inv")
	if err == nil {
		t.Fatal("Pull against a dead peer succeeded")
	}
	if calls != 3 {
		t.Fatalf("made %d attempts, want 3", calls)
	}
	if !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("err = %v, want attempt-budget message", err)
	}
}

// TestReplicatorPullInto replicates a catalog between two live daemons
// through a flaky proxy, proving end-to-end that retried pulls install
// a working, persisted catalog — and that invalid pulled bytes are
// rejected before touching the registry.
func TestReplicatorPullInto(t *testing.T) {
	srcTS, _ := newTestServer(t, nil)
	cat, srcDoc := fixtureDocs(t, 1)
	if status, _ := putCatalog(t, srcTS, "inv", cat); status != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	// The flaky hop: first attempt 503s, then proxies to the source.
	var tries int
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tries++
		if tries == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		resp, err := http.Get(srcTS.URL + r.URL.Path)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	dir := t.TempDir()
	dstTS, dstSvc := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	rp := &Replicator{Base: proxy.URL, Backoff: time.Millisecond}
	if err := rp.PullInto(context.Background(), dstSvc, "inv"); err != nil {
		t.Fatalf("PullInto: %v", err)
	}
	if _, err := os.Stat(snapshotPath(dir, "inv")); err != nil {
		t.Errorf("replicated catalog not persisted: %v", err)
	}
	resp, body := doJSON(t, http.MethodPost, dstTS.URL+"/v1/catalogs/inv/match",
		map[string]any{"source": srcDoc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match on replicated catalog = %d: %s", resp.StatusCode, body)
	}

	// Corrupt bytes out of a peer must never reach the registry.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not a snapshot"))
	}))
	defer bad.Close()
	rp2 := &Replicator{Base: bad.URL, Backoff: time.Millisecond}
	if err := rp2.PullInto(context.Background(), dstSvc, "evil"); err == nil {
		t.Fatal("PullInto accepted invalid snapshot bytes")
	}
	if _, ok := dstSvc.Registry().Get("evil"); ok {
		t.Fatal("invalid replicated catalog installed")
	}
}
