package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/datagen"
)

// putFleet uploads n small, distinct catalogs named fleet0..fleet(n-1)
// and returns the source document of the first dataset.
func putFleet(t *testing.T, ts *httptest.Server, n int) SchemaDoc {
	t.Helper()
	var src SchemaDoc
	targets := []datagen.TargetSchema{datagen.Aaron, datagen.Barrett, datagen.Ryan}
	for i := 0; i < n; i++ {
		ds := datagen.Inventory(datagen.InventoryConfig{
			Rows: 60, TargetRows: 90, Gamma: 3, Target: targets[i%len(targets)], Seed: int64(40 + i),
		})
		cat, err := DocFromSchema(ds.Target)
		if err != nil {
			t.Fatalf("encoding catalog %d: %v", i, err)
		}
		if status, _ := putCatalog(t, ts, fmt.Sprintf("fleet%d", i), cat); status != http.StatusCreated {
			t.Fatalf("PUT fleet%d status = %d", i, status)
		}
		if i == 0 {
			src, err = DocFromSchema(ds.Source)
			if err != nil {
				t.Fatalf("encoding source: %v", err)
			}
		}
	}
	return src
}

func postMatchAny(t *testing.T, ts *httptest.Server, req MatchAnyRequest) (int, MatchAnyResponse, []byte) {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/match-any", req)
	var out MatchAnyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decoding match-any response: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, out, body
}

// TestMatchAnyEndpoint uploads three catalogs and checks the envelope:
// retrieval scores for every catalog, ranked results with full Result
// payloads, and the same winner (with identical edges) as a k that
// matches every catalog and as a direct per-catalog match.
func TestMatchAnyEndpoint(t *testing.T) {
	ts, svc := newTestServer(t, nil)
	src := putFleet(t, ts, 3)

	status, got, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 2})
	if status != http.StatusOK {
		t.Fatalf("match-any status = %d: %s", status, body)
	}
	if got.Considered != 3 {
		t.Fatalf("considered = %d, want 3", got.Considered)
	}
	if len(got.Retrieval) != 3 {
		t.Fatalf("retrieval has %d catalogs, want 3: %s", len(got.Retrieval), body)
	}
	if len(got.Catalogs) == 0 || got.Catalogs[0].Result == nil {
		t.Fatalf("no ranked result payload: %s", body)
	}
	if got.Matched == 0 || got.Matched > 2 {
		t.Fatalf("matched = %d, want 1..2", got.Matched)
	}

	// k = the catalog count: the top-k floor stays 0 until every
	// catalog is scored, so nothing is pruned and every catalog matches.
	status, exh, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 3})
	if status != http.StatusOK {
		t.Fatalf("k=3 status = %d: %s", status, body)
	}
	if exh.Matched != 3 || exh.Pruned != 0 {
		t.Fatalf("k=3 envelope wrong: matched=%d pruned=%d", exh.Matched, exh.Pruned)
	}
	if got.Catalogs[0].Name != exh.Catalogs[0].Name {
		t.Fatalf("k=2 winner %q != k=3 winner %q", got.Catalogs[0].Name, exh.Catalogs[0].Name)
	}
	a, _ := json.Marshal(got.Catalogs[0].Result.Matches)
	b, _ := json.Marshal(exh.Catalogs[0].Result.Matches)
	if !bytes.Equal(a, b) {
		t.Fatalf("winning edges differ between k=2 and k=3")
	}

	// The winner's payload is bit-identical to matching that catalog
	// directly.
	winner := got.Catalogs[0].Name
	resp, direct := doJSON(t, http.MethodPost, ts.URL+"/v1/catalogs/"+winner+"/match",
		matchRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct match status = %d", resp.StatusCode)
	}
	var directRes ctxmatch.Result
	if err := json.Unmarshal(direct, &directRes); err != nil {
		t.Fatalf("decoding direct result: %v", err)
	}
	c, _ := json.Marshal(directRes.Matches)
	if !bytes.Equal(a, c) {
		t.Fatalf("match-any winner edges differ from direct match")
	}

	if svc.Fleet().Len() != 3 {
		t.Fatalf("fleet tracks %d catalogs, want 3", svc.Fleet().Len())
	}
}

// TestMatchAnyValidationOverHTTP covers the endpoint's error mapping:
// no source 400, bad min_score 400, empty fleet still 200.
func TestMatchAnyValidationOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, nil)

	status, _, body := postMatchAny(t, ts, MatchAnyRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty request status = %d: %s", status, body)
	}

	src := putFleet(t, ts, 1)
	status, _, body = postMatchAny(t, ts, MatchAnyRequest{Source: src, MinScore: 1.5})
	if status != http.StatusBadRequest {
		t.Fatalf("min_score 1.5 status = %d: %s", status, body)
	}

	status, got, body := postMatchAny(t, ts, MatchAnyRequest{Source: src})
	if status != http.StatusOK || got.Considered != 1 {
		t.Fatalf("one-catalog match-any: status %d, %s", status, body)
	}
}

// TestFleetTracksRegistryOverHTTP drives install / re-prepare / delete
// / LRU eviction through the HTTP surface and checks the fleet mirrors
// the registry exactly after every step.
func TestFleetTracksRegistryOverHTTP(t *testing.T) {
	ts, svc := newTestServer(t, func(c *Config) { c.MaxCatalogs = 2 })
	src := putFleet(t, ts, 2) // fleet0, fleet1

	check := func(stage string, want ...string) {
		t.Helper()
		entries := svc.Fleet().Entries()
		var got []string
		for _, e := range entries {
			got = append(got, e.Name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: fleet = %v, want %v", stage, got, want)
		}
		if svc.Fleet().Len() != svc.Registry().Len() {
			t.Fatalf("%s: fleet %d != registry %d", stage, svc.Fleet().Len(), svc.Registry().Len())
		}
	}
	check("after seed", "fleet0", "fleet1")

	// A third catalog evicts the least recently used (fleet0).
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 60, TargetRows: 90, Gamma: 3, Target: datagen.Ryan, Seed: 99,
	})
	cat, err := DocFromSchema(ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := putCatalog(t, ts, "fleet2", cat); status != http.StatusCreated {
		t.Fatalf("PUT fleet2 failed")
	}
	check("after eviction", "fleet1", "fleet2")

	// Re-preparing bumps the generation in the fleet too.
	if status, info := putCatalog(t, ts, "fleet2", cat); status != http.StatusOK || info.Generation != 2 {
		t.Fatalf("re-PUT fleet2: status %d gen %d", status, info.Generation)
	}
	for _, e := range svc.Fleet().Entries() {
		if e.Name == "fleet2" && e.Generation != 2 {
			t.Fatalf("fleet2 generation = %d, want 2", e.Generation)
		}
	}

	resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/catalogs/fleet1", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	check("after delete", "fleet2")

	status, got, body := postMatchAny(t, ts, MatchAnyRequest{Source: src})
	if status != http.StatusOK || got.Considered != 1 {
		t.Fatalf("match-any after churn: status %d, %s", status, body)
	}
}

// TestEvictionRacingMatchAny is the serving-layer race: continuous
// snapshot installs under a tiny registry cap (every install evicts)
// racing concurrent match-any traffic. No request may see a 5xx — an
// in-flight retrieval finishes on the entry snapshot it took, and the
// fleet swap is atomic.
func TestEvictionRacingMatchAny(t *testing.T) {
	ts, _ := newTestServer(t, func(c *Config) { c.MaxCatalogs = 2 })
	src := putFleet(t, ts, 2)

	// One snapshot, re-uploaded under rotating names: installs are
	// cheap (no preparation), so the registry churns fast.
	resp, snap := doJSON(t, http.MethodGet, ts.URL+"/v1/catalogs/fleet0/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot download status = %d", resp.StatusCode)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i%3)
			req, err := http.NewRequest(http.MethodPut,
				ts.URL+"/v1/catalogs/"+name+"/snapshot", bytes.NewReader(snap))
			if err != nil {
				t.Errorf("building churn request: %v", err)
				return
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("churn install: %v", err)
				return
			}
			r.Body.Close()
			if r.StatusCode >= 500 {
				t.Errorf("churn install status %d", r.StatusCode)
				return
			}
		}
	}()

	var reqs sync.WaitGroup
	for w := 0; w < 4; w++ {
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			for i := 0; i < 15; i++ {
				b, err := json.Marshal(MatchAnyRequest{Source: src, K: 2})
				if err != nil {
					t.Errorf("marshal: %v", err)
					return
				}
				r, err := http.Post(ts.URL+"/v1/match-any", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Errorf("match-any: %v", err)
					return
				}
				r.Body.Close()
				if r.StatusCode >= 500 {
					t.Errorf("match-any status %d under eviction churn", r.StatusCode)
					return
				}
			}
		}()
	}
	reqs.Wait()
	close(stop)
	churn.Wait()
}

// TestRateLimit429 exercises token-bucket admission: per-catalog
// buckets are independent, refusals carry Retry-After, and match-any
// draws from its own fleet-wide bucket.
func TestRateLimit429(t *testing.T) {
	ts, _ := newTestServer(t, func(c *Config) {
		c.RateLimit = 0.5 // refills far slower than the test runs
		c.RateBurst = 1
	})
	src := putFleet(t, ts, 2)

	post := func(path string, body any) *http.Response {
		t.Helper()
		resp, _ := doJSON(t, http.MethodPost, ts.URL+path, body)
		return resp
	}

	if r := post("/v1/catalogs/fleet0/match", matchRequest{Source: src}); r.StatusCode != http.StatusOK {
		t.Fatalf("first match status = %d", r.StatusCode)
	}
	r := post("/v1/catalogs/fleet0/match", matchRequest{Source: src})
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second match status = %d, want 429", r.StatusCode)
	}
	if ra, err := strconv.Atoi(r.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", r.Header.Get("Retry-After"))
	}
	// fleet1's bucket is untouched.
	if r := post("/v1/catalogs/fleet1/match", matchRequest{Source: src}); r.StatusCode != http.StatusOK {
		t.Fatalf("other catalog status = %d, want 200", r.StatusCode)
	}
	// match-any has its own bucket: one admit, then 429.
	if r := post("/v1/match-any", MatchAnyRequest{Source: src}); r.StatusCode != http.StatusOK {
		t.Fatalf("first match-any status = %d", r.StatusCode)
	}
	if r := post("/v1/match-any", MatchAnyRequest{Source: src}); r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second match-any status = %d, want 429", r.StatusCode)
	}
	// Unknown catalogs 404 before touching any bucket.
	if r := post("/v1/catalogs/nope/match", matchRequest{Source: src}); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown catalog status = %d, want 404", r.StatusCode)
	}
}

// TestMetricsEndpoint drives a little traffic and checks the exposition
// carries the advertised families with route and catalog labels.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	src := putFleet(t, ts, 2)
	if status, _, _ := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 1}); status != http.StatusOK {
		t.Fatalf("match-any status = %d", status)
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/catalogs/fleet0/match",
		matchRequest{Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("match status = %d", resp.StatusCode)
	}

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`ctxmatchd_http_requests_total{route="PUT /v1/catalogs/{name}",code="201"} 2`,
		`ctxmatchd_http_requests_total{route="POST /v1/match-any",code="200"} 1`,
		`ctxmatchd_http_request_duration_seconds_count{route="POST /v1/catalogs/{name}/match"} 1`,
		`ctxmatchd_catalog_matches_total{catalog="fleet0"}`,
		"ctxmatchd_catalogs 2",
		"ctxmatchd_http_in_flight_requests",
		"ctxmatchd_matchany_catalogs_considered_total 2",
		"ctxmatchd_matchany_catalogs_matched_total 1",
		"ctxmatchd_snapshot_restores_total 0",
		"ctxmatchd_degraded_total 0",
		"ctxmatchd_snapshot_quarantined_total 0",
		"ctxmatchd_breaker_open 0",
		"# TYPE ctxmatchd_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestHealthzReadiness checks the probe's warm-restart window: 503
// "loading" between Begin- and FinishWarmRestart, 200 with catalog and
// restored counts after.
func TestHealthzReadiness(t *testing.T) {
	ts, svc := newTestServer(t, nil)

	svc.BeginWarmRestart()
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("loading healthz status = %d, want 503", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "loading" {
		t.Fatalf("loading healthz body: %s (err %v)", body, err)
	}

	svc.FinishWarmRestart()
	putFleet(t, ts, 1)
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if h.Status != "ok" || h.Catalogs != 1 || h.Restored != 0 {
		t.Fatalf("healthz body = %+v", h)
	}
}

// TestListReportsMatchCounts checks the listing's live per-catalog
// match counter.
func TestListReportsMatchCounts(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	src := putFleet(t, ts, 1)
	for i := 0; i < 2; i++ {
		if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/catalogs/fleet0/match",
			matchRequest{Source: src}); resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d failed", i)
		}
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/catalogs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	var list listResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(list.Catalogs) != 1 || list.Catalogs[0].Matches != 2 {
		t.Fatalf("list = %+v, want fleet0 with 2 matches", list.Catalogs)
	}
}

// fuzzFixture starts a server holding one small catalog, "inv", for the
// request-body fuzzers, and returns its URL with the first source
// table's CSV and the whole source schema document as JSON.
func fuzzFixture(f *testing.F) (url, srcCSV string, srcJSON []byte) {
	m, err := ctxmatch.New(ctxmatch.WithSeed(1), ctxmatch.WithParallelism(2))
	if err != nil {
		f.Fatal(err)
	}
	svc, err := New(Config{Matcher: m, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	f.Cleanup(ts.Close)

	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 20, TargetRows: 30, Gamma: 3, Target: datagen.Ryan, Seed: 1,
	})
	cat, err := DocFromSchema(ds.Target)
	if err != nil {
		f.Fatal(err)
	}
	up, err := json.Marshal(cat)
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
	src, err := DocFromSchema(ds.Source)
	if err != nil {
		f.Fatal(err)
	}
	if srcJSON, err = json.Marshal(src); err != nil {
		f.Fatal(err)
	}
	return ts.URL, src.Tables[0].CSV, srcJSON
}

// postFuzzBody POSTs body under contentType and fails unless the server
// answers 200, 400 or 429: a 5xx or a panic is a bug.
func postFuzzBody(t *testing.T, url string, body []byte, contentType string) {
	if strings.ContainsFunc(contentType, func(r rune) bool { return r != '\t' && (r < ' ' || r == 0x7f) }) {
		t.Skip("the client refuses to send control bytes in a header value")
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
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
	case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests:
	default:
		t.Fatalf("POST %s %q (%q): status = %d, want 200, 400 or 429", url, body, contentType, resp.StatusCode)
	}
}

// FuzzMatchAnyRequest drives POST /v1/match-any with arbitrary bodies
// under arbitrary content types, against a server holding one small
// catalog. A body may match (200), be rejected (400) or be shed by
// admission (429); a 5xx or a panic is a bug. A body that still carries
// the retired "exhaustive" knob decodes like any other unknown field.
func FuzzMatchAnyRequest(f *testing.F) {
	url, srcCSV, srcJSON := fuzzFixture(f)
	f.Add([]byte(srcCSV), "text/csv")
	f.Add([]byte(`{"source":`+string(srcJSON)+`,"k":2,"min_score":0.05}`), "application/json")
	f.Add([]byte(`{"source":`+string(srcJSON)+`,"exhaustive":true}`), "application/json; charset=utf-8")
	f.Add([]byte(`{"source":{"tables":[]},"min_score":1.5}`), "application/json")
	f.Add([]byte(`{"source":{"tables":[{"name":"s","csv":"a:string\nv"}]},"k":-3}`), "application/json")
	f.Add([]byte(`not json at all`), "application/json")
	f.Add([]byte{}, "")

	f.Fuzz(func(t *testing.T, body []byte, contentType string) {
		postFuzzBody(t, url+"/v1/match-any", body, contentType)
	})
}

// FuzzMatchBodies drives the single-catalog match endpoints with
// arbitrary bodies: POST /v1/catalogs/inv/match (CSV or a JSON source
// document, by content type) when batch is false, POST
// /v1/catalogs/inv/match-batch (a JSON sources array) when it is true.
// The answers allowed are those of FuzzMatchAnyRequest.
func FuzzMatchBodies(f *testing.F) {
	url, srcCSV, srcJSON := fuzzFixture(f)
	f.Add([]byte(srcCSV), "text/csv", false)
	f.Add([]byte(`{"source":`+string(srcJSON)+`}`), "application/json", false)
	f.Add([]byte(`{"source":{"tables":[{"name":"s","csv":"a:string\nv"}]}}`), "application/json; charset=utf-8", false)
	f.Add([]byte(`{"source":{"tables":[]}}`), "application/json", false)
	f.Add([]byte(`{"sources":[`+string(srcJSON)+`,{"name":"broken"},{"tables":[{"name":"s","csv":"a:int\nx"}]}]}`), "application/json", true)
	f.Add([]byte(`{"sources":[]}`), "application/json", true)
	f.Add([]byte(`{"sources":null}`), "", true)
	f.Add([]byte(`not json at all`), "application/json", true)
	f.Add([]byte{}, "", false)

	f.Fuzz(func(t *testing.T, body []byte, contentType string, batch bool) {
		path := "/v1/catalogs/inv/match"
		if batch {
			path += "-batch"
		}
		postFuzzBody(t, url+path, body, contentType)
	})
}

// TestMatchAnyIgnoresExhaustive: the retired "exhaustive" field is an
// unknown field like any other — a body carrying it gets exactly the
// response the same body without it gets.
func TestMatchAnyIgnoresExhaustive(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	src := putFleet(t, ts, 3)
	doc, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	canonical := func(body string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/match-any", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		var out MatchAnyResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		for _, c := range out.Catalogs {
			c.Result.Elapsed = 0
		}
		b, _ := json.Marshal(out)
		return b
	}
	plain := canonical(`{"source":` + string(doc) + `,"k":1}`)
	legacy := canonical(`{"source":` + string(doc) + `,"k":1,"exhaustive":true}`)
	if !bytes.Equal(plain, legacy) {
		t.Fatalf("exhaustive:true changed the response:\n%s\nvs\n%s", legacy, plain)
	}
	var out MatchAnyResponse
	if err := json.Unmarshal(legacy, &out); err != nil {
		t.Fatal(err)
	}
	if out.Matched != 1 {
		t.Fatalf("k=1 with exhaustive:true matched %d catalogs, want 1", out.Matched)
	}
}
