package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/datagen"
)

func getBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, data
}

func putRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, data
}

// matchBody posts one match and returns the response normalized for
// comparison: elapsed_ns is the only wall-clock (and therefore
// run-varying) field of the wire envelope, so it is dropped and the
// rest re-marshaled with sorted keys.
func matchBody(t *testing.T, ts *httptest.Server, name string, src SchemaDoc) []byte {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/catalogs/"+name+"/match", matchRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status = %d: %s", resp.StatusCode, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding match response: %v", err)
	}
	delete(m, "elapsed_ns")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotEndpointsReplicate is the replication flow end to end:
// GET a prepared catalog's snapshot off one daemon, PUT it into a
// second one that never saw the sample data, and require the replica to
// produce byte-identical match responses.
func TestSnapshotEndpointsReplicate(t *testing.T) {
	catDoc, srcDoc := fixtureDocs(t, 1)
	primary, _ := newTestServer(t, nil)
	if status, _ := putCatalog(t, primary, "inventory", catDoc); status != http.StatusCreated {
		t.Fatalf("PUT catalog status = %d", status)
	}
	want := matchBody(t, primary, "inventory", srcDoc)

	status, snap := getBytes(t, primary.URL+"/v1/catalogs/inventory/snapshot")
	if status != http.StatusOK {
		t.Fatalf("GET snapshot status = %d", status)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot body")
	}
	if status, _ := getBytes(t, primary.URL+"/v1/catalogs/nope/snapshot"); status != http.StatusNotFound {
		t.Errorf("GET snapshot of unknown catalog = %d, want 404", status)
	}

	replica, svc := newTestServer(t, nil)
	status, body := putRaw(t, replica.URL+"/v1/catalogs/inventory/snapshot", snap)
	if status != http.StatusCreated {
		t.Fatalf("PUT snapshot status = %d: %s", status, body)
	}
	infos := svc.Registry().List()
	if len(infos) != 1 || !infos[0].RestoredFromSnapshot || infos[0].SnapshotBytes != len(snap) {
		t.Fatalf("replica listing = %+v", infos)
	}
	if got := matchBody(t, replica, "inventory", srcDoc); !bytes.Equal(got, want) {
		t.Errorf("replica match diverged:\n got: %.200s\nwant: %.200s", got, want)
	}

	if status, body := putRaw(t, replica.URL+"/v1/catalogs/bad/snapshot", []byte("not a snapshot")); status != http.StatusBadRequest {
		t.Errorf("PUT garbage snapshot = %d: %s", status, body)
	}
}

// TestSnapshotReplicaPersisted: a snapshot replicated into a daemon
// with a snapshot directory is persisted there as bytes that load and
// rewrite unchanged, and a match against the replica succeeds. Bytes
// that are not a valid snapshot never reach the replica's registry or
// its snapshot directory.
func TestSnapshotReplicaPersisted(t *testing.T) {
	catDoc, srcDoc := fixtureDocs(t, 1)
	primary, _ := newTestServer(t, nil)
	if status, _ := putCatalog(t, primary, "inventory", catDoc); status != http.StatusCreated {
		t.Fatalf("PUT catalog status = %d", status)
	}
	status, snap := getBytes(t, primary.URL+"/v1/catalogs/inventory/snapshot")
	if status != http.StatusOK {
		t.Fatalf("GET snapshot status = %d", status)
	}

	dir := t.TempDir()
	replica, svc := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if status, body := putRaw(t, replica.URL+"/v1/catalogs/inventory/snapshot", snap); status != http.StatusCreated {
		t.Fatalf("PUT snapshot status = %d: %s", status, body)
	}
	matchBody(t, replica, "inventory", srcDoc)
	persisted, err := os.ReadFile(snapshotPath(dir, "inventory"))
	if err != nil {
		t.Fatalf("replicated catalog not persisted: %v", err)
	}
	loaded, err := ctxmatch.LoadTarget(bytes.NewReader(persisted))
	if err != nil {
		t.Fatalf("persisted replica does not load: %v", err)
	}
	var rewritten bytes.Buffer
	if _, err := loaded.WriteSnapshot(&rewritten); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten.Bytes(), persisted) {
		t.Errorf("persisted replica rewrites to %d different bytes (%d persisted)", rewritten.Len(), len(persisted))
	}

	if status, body := putRaw(t, replica.URL+"/v1/catalogs/bad/snapshot", []byte("not a snapshot")); status != http.StatusBadRequest {
		t.Errorf("PUT garbage snapshot = %d: %s", status, body)
	}
	if _, ok := svc.Registry().Get("bad"); ok {
		t.Error("invalid uploaded snapshot installed")
	}
	if _, err := os.Stat(snapshotPath(dir, "bad")); !os.IsNotExist(err) {
		t.Errorf("invalid uploaded snapshot persisted: %v", err)
	}
}

// TestSnapshotPersistAndRestore covers the disk side: an upload into a
// snapshot-dir-configured server lands on disk atomically, a fresh
// server warm-restarts from that directory before serving, and DELETE
// removes the persisted file along with the catalog.
func TestSnapshotPersistAndRestore(t *testing.T) {
	dir := t.TempDir()
	catDoc, srcDoc := fixtureDocs(t, 1)

	first, _ := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if status, _ := putCatalog(t, first, "inventory", catDoc); status != http.StatusCreated {
		t.Fatal("PUT catalog failed")
	}
	want := matchBody(t, first, "inventory", srcDoc)
	path := snapshotPath(dir, "inventory")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}

	second, svc := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	n, err := svc.RestoreSnapshots()
	if err != nil || n != 1 {
		t.Fatalf("RestoreSnapshots = %d, %v; want 1, nil", n, err)
	}
	infos := svc.Registry().List()
	if len(infos) != 1 || !infos[0].RestoredFromSnapshot {
		t.Fatalf("restored listing = %+v", infos)
	}
	if len(svc.Registry().Dirty()) != 0 {
		t.Error("freshly restored catalog is dirty")
	}
	if got := matchBody(t, second, "inventory", srcDoc); !bytes.Equal(got, want) {
		t.Error("restored server match diverged from original")
	}

	resp, body := doJSON(t, http.MethodDelete, second.URL+"/v1/catalogs/inventory", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("snapshot file survived DELETE: %v", err)
	}

	// A corrupt file must be quarantined, not abort the warm restart.
	if err := os.WriteFile(snapshotPath(dir, "corrupt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := svc.RestoreSnapshots(); err != nil || n != 0 {
		t.Errorf("RestoreSnapshots over corrupt file = %d, %v; want 0, nil", n, err)
	}
	if _, err := os.Stat(snapshotPath(dir, "corrupt")); !os.IsNotExist(err) {
		t.Errorf("corrupt snapshot still in the restore set: %v", err)
	}
	if _, err := os.Stat(snapshotPath(dir, "corrupt") + corruptSuffix); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
}

// TestRestoreUpgradesV1Snapshot: a format-1 snapshot in the directory
// restores — re-prepared from the catalog it carries — but stays dirty,
// so the drain-time flush rewrites it in the current format, which the
// next restart restores clean. A format-1 upload is persisted in the
// current format too, not verbatim.
func TestRestoreUpgradesV1Snapshot(t *testing.T) {
	dir := t.TempDir()
	v1, err := os.ReadFile("../snapshot/testdata/v1-small.snap")
	if err != nil {
		t.Fatal(err)
	}
	path := snapshotPath(dir, "small")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, svc := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if n, err := svc.RestoreSnapshots(); err != nil || n != 1 {
		t.Fatalf("RestoreSnapshots = %d, %v; want 1, nil", n, err)
	}
	if _, dirty := svc.Registry().Dirty()["small"]; !dirty {
		t.Fatal("a catalog restored from a format-1 snapshot is not dirty")
	}
	if err := svc.FlushSnapshots(); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile("../snapshot/testdata/v2-small.snap")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("the flush did not rewrite the snapshot in format 2 (%v)", err)
	}
	ts, again := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if n, err := again.RestoreSnapshots(); err != nil || n != 1 {
		t.Fatalf("second RestoreSnapshots = %d, %v; want 1, nil", n, err)
	}
	if d := again.Registry().Dirty(); len(d) != 0 {
		t.Errorf("a catalog restored from its rewritten snapshot is dirty: %v", d)
	}

	if status, body := putRaw(t, ts.URL+"/v1/catalogs/uploaded/snapshot", v1); status != http.StatusCreated {
		t.Fatalf("PUT format-1 snapshot = %d: %s", status, body)
	}
	if got, err := os.ReadFile(snapshotPath(dir, "uploaded")); err != nil || !bytes.Equal(got, v2) {
		t.Errorf("a format-1 upload was not persisted in format 2 (%v)", err)
	}
	if d := again.Registry().Dirty(); len(d) != 0 {
		t.Errorf("dirty after persisting the upload: %v", d)
	}
}

// TestFlushSnapshots: a handle installed without a persisted file is
// dirty, and the drain-time flush writes exactly the dirty entries.
func TestFlushSnapshots(t *testing.T) {
	dir := t.TempDir()
	catDoc, _ := fixtureDocs(t, 1)
	ts, svc := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if status, _ := putCatalog(t, ts, "inventory", catDoc); status != http.StatusCreated {
		t.Fatal("PUT catalog failed")
	}
	// The eager persist already cleaned the entry.
	if d := svc.Registry().Dirty(); len(d) != 0 {
		t.Fatalf("dirty after eager persist: %v", d)
	}

	// Install a second generation behind the server's back; it is dirty
	// until flushed.
	target, ok := svc.Registry().Get("inventory")
	if !ok {
		t.Fatal("catalog vanished")
	}
	svc.Registry().Install("copy", target)
	if d := svc.Registry().Dirty(); len(d) != 1 {
		t.Fatalf("dirty = %v, want one entry", d)
	}
	if err := svc.FlushSnapshots(); err != nil {
		t.Fatalf("FlushSnapshots: %v", err)
	}
	if _, err := os.Stat(snapshotPath(dir, "copy")); err != nil {
		t.Errorf("flush did not write the dirty catalog: %v", err)
	}
	if d := svc.Registry().Dirty(); len(d) != 0 {
		t.Errorf("dirty after flush: %v", d)
	}
}

// FuzzCatalogPut drives PUT /v1/catalogs/{name} with arbitrary bodies
// under arbitrary content types, on a server that persists every
// upload. A body may be prepared (201 first, 200 on replace), rejected
// (400, 413) or shed by admission (429); a 5xx or a panic is a bug.
// After every upload the persisted snapshot must load from its file and
// rewrite to the same bytes, so the snapshot encoder meets whatever
// prepared content the fuzzer can reach.
func FuzzCatalogPut(f *testing.F) {
	dir := f.TempDir()
	m, err := ctxmatch.New(ctxmatch.WithSeed(1), ctxmatch.WithParallelism(2))
	if err != nil {
		f.Fatal(err)
	}
	svc, err := New(Config{Matcher: m, SnapshotDir: dir, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 20, TargetRows: 30, Gamma: 3, Target: datagen.Ryan, Seed: 1,
	})
	cat, err := DocFromSchema(ds.Target)
	if err != nil {
		f.Fatal(err)
	}
	doc, err := json.Marshal(cat)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc, "application/json")
	f.Add([]byte(cat.Tables[0].CSV), "text/csv")
	f.Add([]byte("title:text,price:real,instock:bool\nheart of darkness,12.5,true\n,NaN,\n-0,-0,false\n"), "text/csv; charset=utf-8")
	f.Add([]byte(`{"tables":[{"name":"a","csv":"x:int\n1\n2"},{"name":"a","csv":"y:text\nz"}]}`), "application/json")
	f.Add([]byte(`{"tables":[]}`), "application/json")
	f.Add([]byte(`not json at all`), "application/json")
	f.Add([]byte("no header\n1,2"), "")
	f.Add([]byte("2,2"), "") // repeated column names: rejected, not persisted unloadable
	f.Add([]byte{}, "")

	path := snapshotPath(dir, "fuzz")
	f.Fuzz(func(t *testing.T, body []byte, contentType string) {
		if strings.ContainsFunc(contentType, func(r rune) bool { return r != '\t' && (r < ' ' || r == 0x7f) }) {
			t.Skip("the client refuses to send control bytes in a header value")
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/catalogs/fuzz", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusCreated:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("PUT %q (%q): status = %d, want 200, 201, 400, 413 or 429", body, contentType, resp.StatusCode)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("PUT %q: snapshot not persisted: %v", body, err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ctxmatch.LoadTarget(file)
		file.Close()
		if err != nil {
			t.Fatalf("PUT %q: persisted snapshot does not load: %v", body, err)
		}
		var again bytes.Buffer
		if _, err := loaded.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("PUT %q: the loaded snapshot rewrites to %d bytes, the file has %d", body, again.Len(), len(data))
		}
	})
}
