package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/datagen"
)

// patchCatalog sends a delta document and decodes the CatalogInfo on
// success, mirroring putCatalog.
func patchCatalog(t *testing.T, ts *httptest.Server, name string, doc CatalogDeltaDoc) (int, CatalogInfo, []byte) {
	t.Helper()
	resp, body := doJSON(t, http.MethodPatch, ts.URL+"/v1/catalogs/"+name, doc)
	var info CatalogInfo
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatalf("decoding catalog info: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, info, body
}

// TestPatchCatalog drives the PATCH endpoint end to end: a delta that
// replaces one table, adds one and drops one lands as a new generation
// whose listing reflects the edit, match traffic keeps flowing, the
// entry is dirty for the drain-time flush, and the update counters
// moved.
func TestPatchCatalog(t *testing.T) {
	catDoc, srcDoc := fixtureDocs(t, 1)
	altDoc, _ := fixtureDocs(t, 2) // same table names, different rows
	ts, svc := newTestServer(t, nil)

	status, put := putCatalog(t, ts, "inv", catDoc)
	if status != http.StatusCreated {
		t.Fatalf("PUT status = %d, want 201", status)
	}
	if len(catDoc.Tables) < 2 {
		t.Fatalf("fixture has %d tables, need ≥2", len(catDoc.Tables))
	}

	delta := CatalogDeltaDoc{
		Replace: []TableDoc{altDoc.Tables[0]},
		Add:     []TableDoc{{Name: "annex", CSV: altDoc.Tables[1].CSV}},
		Drop:    []string{catDoc.Tables[1].Name},
	}
	status, info, _ := patchCatalog(t, ts, "inv", delta)
	if status != http.StatusOK {
		t.Fatalf("PATCH status = %d, want 200", status)
	}
	if info.Generation != put.Generation+1 {
		t.Errorf("generation = %d, want %d", info.Generation, put.Generation+1)
	}
	if info.Tables != put.Tables {
		t.Errorf("tables = %d, want %d (one added, one dropped)", info.Tables, put.Tables)
	}
	if info.PreparedNS <= 0 {
		t.Errorf("prepared_ns = %d, want > 0 (delta rebuild cost)", info.PreparedNS)
	}

	// The new generation serves matches.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/catalogs/inv/match", matchRequest{Source: srcDoc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match after PATCH: status = %d\n%s", resp.StatusCode, body)
	}

	// The listing shows the new generation; the entry is pending a
	// snapshot flush.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/catalogs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status = %d", resp.StatusCode)
	}
	var list listResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decoding listing: %v", err)
	}
	if len(list.Catalogs) != 1 || list.Catalogs[0].Generation != info.Generation {
		t.Errorf("listing = %+v, want one catalog at generation %d", list.Catalogs, info.Generation)
	}
	if _, ok := svc.reg.Dirty()["inv"]; !ok {
		t.Errorf("updated catalog not marked dirty for the snapshot flush")
	}

	// The update counters are on /metrics.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		`ctxmatchd_catalog_updates_total{catalog="inv"} 1`,
		`ctxmatchd_catalog_update_tables_total 3`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMatchAnyObservesPatch is the observer-wiring regression test for
// incremental updates: a PATCH swap must reach the fleet's fused index
// synchronously, so the very next /v1/match-any reports the new
// generation and its winner payload is bit-identical to matching the
// patched catalog directly. The fused index gauges on /metrics must
// reflect the swapped fleet too.
func TestMatchAnyObservesPatch(t *testing.T) {
	catDoc, srcDoc := fixtureDocs(t, 1)
	altDoc, _ := fixtureDocs(t, 2) // same table names, different rows
	otherDoc, _ := fixtureDocs(t, 3)
	ts, svc := newTestServer(t, nil)

	if status, _ := putCatalog(t, ts, "inv", catDoc); status != http.StatusCreated {
		t.Fatalf("PUT inv failed")
	}
	if status, _ := putCatalog(t, ts, "other", otherDoc); status != http.StatusCreated {
		t.Fatalf("PUT other failed")
	}

	generations := func(stage string) map[string]int {
		t.Helper()
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/match-any", MatchAnyRequest{Source: srcDoc})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: match-any status = %d\n%s", stage, resp.StatusCode, body)
		}
		var out MatchAnyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: decoding match-any: %v", stage, err)
		}
		gens := map[string]int{}
		for _, cs := range out.Retrieval {
			gens[cs.Name] = cs.Generation
		}
		return gens
	}
	if gens := generations("before PATCH"); gens["inv"] != 1 || gens["other"] != 1 {
		t.Fatalf("fresh fleet generations = %v, want both 1", gens)
	}

	delta := CatalogDeltaDoc{Replace: []TableDoc{altDoc.Tables[0]}}
	status, info, body := patchCatalog(t, ts, "inv", delta)
	if status != http.StatusOK {
		t.Fatalf("PATCH status = %d\n%s", status, body)
	}
	if info.Generation != 2 {
		t.Fatalf("PATCH generation = %d, want 2", info.Generation)
	}

	// The fleet saw the swap before the PATCH response was written — no
	// refresh, no second request, no eventual consistency.
	for _, e := range svc.Fleet().Entries() {
		if e.Name == "inv" && e.Generation != 2 {
			t.Fatalf("fleet entry for inv at generation %d after PATCH", e.Generation)
		}
	}
	if gens := generations("after PATCH"); gens["inv"] != 2 || gens["other"] != 1 {
		t.Fatalf("post-PATCH generations = %v, want inv=2 other=1", gens)
	}

	// The match-any payload for the patched catalog is the new
	// generation's, bit-identical to a direct match against it. k is the
	// catalog count, so every catalog is matched.
	status, any, body := postMatchAny(t, ts, MatchAnyRequest{Source: srcDoc, K: 2})
	if status != http.StatusOK {
		t.Fatalf("match-any status = %d\n%s", status, body)
	}
	var fromAny []byte
	for _, mc := range any.Catalogs {
		if mc.Name == "inv" {
			if mc.Generation != 2 || mc.Result == nil {
				t.Fatalf("match-any inv: generation %d, result %v", mc.Generation, mc.Result)
			}
			fromAny, _ = json.Marshal(mc.Result.Matches)
		}
	}
	resp, direct := doJSON(t, http.MethodPost, ts.URL+"/v1/catalogs/inv/match", matchRequest{Source: srcDoc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct match status = %d", resp.StatusCode)
	}
	var directRes ctxmatch.Result
	if err := json.Unmarshal(direct, &directRes); err != nil {
		t.Fatalf("decoding direct result: %v", err)
	}
	fromDirect, _ := json.Marshal(directRes.Matches)
	if !bytes.Equal(fromAny, fromDirect) {
		t.Fatalf("match-any edges for patched catalog differ from direct match:\n%s\n%s", fromAny, fromDirect)
	}

	// The fused index gauges track the swapped fleet: two live slots and
	// no tombstones (the swap's tombstone crossed the half-dead mark of
	// this two-catalog fleet and compacted away).
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"ctxmatchd_fused_slots 2",
		"ctxmatchd_fused_tombstones 0",
		"ctxmatchd_fused_grams ",
		"ctxmatchd_fused_probes_total ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPatchCatalogErrors pins the failure statuses: unknown catalog is
// 404; malformed JSON, structurally invalid deltas and bad CSV are 400
// with the reason in the error envelope.
func TestPatchCatalogErrors(t *testing.T) {
	catDoc, _ := fixtureDocs(t, 1)
	ts, _ := newTestServer(t, nil)
	if status, _ := putCatalog(t, ts, "inv", catDoc); status != http.StatusCreated {
		t.Fatalf("PUT status = %d", status)
	}

	status, _, _ := patchCatalog(t, ts, "ghost", CatalogDeltaDoc{Drop: []string{"x"}})
	if status != http.StatusNotFound {
		t.Errorf("unknown catalog: status = %d, want 404", status)
	}

	resp, body := doJSON(t, http.MethodPatch, ts.URL+"/v1/catalogs/inv", "not a delta")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400\n%s", resp.StatusCode, body)
	}

	cases := map[string]CatalogDeltaDoc{
		"empty delta":  {},
		"drop unknown": {Drop: []string{"nope"}},
		"add existing": {Add: []TableDoc{{Name: catDoc.Tables[0].Name, CSV: catDoc.Tables[0].CSV}}},
		"unnamed add":  {Add: []TableDoc{{CSV: catDoc.Tables[0].CSV}}},
		"bad csv":      {Add: []TableDoc{{Name: "broken", CSV: "no typed header\n1,2"}}},
	}
	for name, doc := range cases {
		status, _, body := patchCatalog(t, ts, "inv", doc)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400\n%s", name, status, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", name, body)
		}
	}

	// Failed deltas must not bump the generation.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/catalogs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status = %d", resp.StatusCode)
	}
	var list listResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decoding listing: %v", err)
	}
	if len(list.Catalogs) != 1 || list.Catalogs[0].Generation != 1 {
		t.Errorf("listing = %+v, want one catalog still at generation 1", list.Catalogs)
	}
}

// FuzzCatalogDelta throws arbitrary PATCH bodies at a live server: any
// input must come back 200 or 400 — never a panic, never a 5xx.
func FuzzCatalogDelta(f *testing.F) {
	m, err := ctxmatch.New(ctxmatch.WithSeed(1), ctxmatch.WithParallelism(2))
	if err != nil {
		f.Fatal(err)
	}
	svc, err := New(Config{Matcher: m, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 20, TargetRows: 30, Gamma: 3, Target: datagen.Ryan, Seed: 1,
	})
	doc, err := DocFromSchema(ds.Target)
	if err != nil {
		f.Fatal(err)
	}
	up, err := json.Marshal(doc)
	if err != nil {
		f.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/catalogs/inv", bytes.NewReader(up))
	if err != nil {
		f.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		f.Fatalf("installing fixture catalog: status = %d", resp.StatusCode)
	}

	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"drop":["` + doc.Tables[0].Name + `"]}`))
	f.Add([]byte(`{"drop":["nope"],"add":[{"name":"x","csv":"a:string\nv"}]}`))
	f.Add([]byte(`{"replace":[{"name":"` + doc.Tables[0].Name + `","csv":` + mustQuote(doc.Tables[0].CSV) + `}]}`))
	f.Add([]byte(`{"add":[{"name":"","csv":""}]}`))
	f.Add([]byte(`{"add":[{"name":"broken","csv":"no header\n1,2"}]}`))
	f.Add([]byte(`{"add":[null],"replace":[null],"drop":[null]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/catalogs/inv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// Fuzzed deltas may legitimately apply (200) or be rejected
		// (400); anything else — especially a 500 — is a bug. The
		// catalog itself stays installed: dropping its last table is a
		// rejected delta, not a delete.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PATCH %q: status = %d, want 200 or 400", body, resp.StatusCode)
		}
	})
}

// mustQuote JSON-encodes a string for embedding in a fuzz seed.
func mustQuote(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}
