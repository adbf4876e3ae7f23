package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/service"
)

// Example_serving is the enterprise session shape — one curated target
// catalog, many incoming source schemas — through the ctxmatchd daemon
// instead of in-process calls. The full daemon handler stack (registry,
// timeouts, body limits, concurrency bound, logging) is stood up behind
// httptest; a client then uploads the catalog once
// (PUT /v1/catalogs/{name} prepares and pins it), matches single
// sources and a batch with a deliberately broken schema riding along to
// show per-source error isolation, and decodes the responses — which
// are the library's versioned Result wire envelope, the same bytes
// encode.go documents. It prints no timing and no response size: a
// Result's elapsed_ns field, and with it the body's length, varies from
// run to run.
func Example_serving() {
	// The long-lived catalog plus three arriving source schemas: two
	// real ones (different samples of the same domain) and one broken.
	catalog := datagen.Inventory(datagen.InventoryConfig{
		Rows: 300, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: 1,
	})
	var sources []service.SchemaDoc
	for seed := int64(1); seed <= 2; seed++ {
		ds := datagen.Inventory(datagen.InventoryConfig{
			Rows: 300, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: seed,
		})
		ds.Source.Name = fmt.Sprintf("tenant%d", seed)
		doc, err := service.DocFromSchema(ds.Source)
		if err != nil {
			log.Fatal(err)
		}
		sources = append(sources, doc)
	}
	sources = append(sources, service.SchemaDoc{Name: "broken"}) // no tables

	// The daemon, exactly as cmd/ctxmatchd wires it, behind httptest.
	matcher, err := ctxmatch.New()
	if err != nil {
		log.Fatal(err)
	}
	svc, err := service.New(service.Config{
		Matcher: matcher,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		log.Fatal(err)
	}
	daemon := httptest.NewServer(svc.Handler())
	defer daemon.Close()

	// Upload + prepare the catalog once: all classifier training and
	// catalog column scans happen inside this PUT, not per request.
	catDoc, err := service.DocFromSchema(catalog.Target)
	if err != nil {
		log.Fatal(err)
	}
	var info service.CatalogInfo
	decode(call(http.MethodPut, daemon.URL+"/v1/catalogs/inventory", catDoc), &info)
	fmt.Printf("== PUT /v1/catalogs/inventory ==\n  prepared generation %d: %d tables, %d rows, %d classifiers\n",
		info.Generation, info.Tables, info.Rows, info.Classifiers)

	// One source, one request. The response body is the versioned
	// Result envelope; ctxmatch.Result decodes it directly.
	var res ctxmatch.Result
	decode(call(http.MethodPost, daemon.URL+"/v1/catalogs/inventory/match", map[string]any{"source": sources[0]}), &res)
	fmt.Printf("\n== POST /v1/catalogs/inventory/match ==\n  %s: %d matches (%d contextual)\n",
		sources[0].Name, len(res.Matches), len(res.ContextualMatches()))

	// A batch: results come back index-aligned; the broken schema fails
	// alone with an errors entry, its siblings are untouched.
	var batch struct {
		Results []*ctxmatch.Result `json:"results"`
		Errors  []struct {
			Index  int    `json:"index"`
			Schema string `json:"schema"`
			Error  string `json:"error"`
		} `json:"errors"`
	}
	decode(call(http.MethodPost, daemon.URL+"/v1/catalogs/inventory/match-batch", map[string]any{"sources": sources}), &batch)
	fmt.Println("\n== POST /v1/catalogs/inventory/match-batch ==")
	for i, r := range batch.Results {
		if r != nil {
			fmt.Printf("  %s: %d matches (%d contextual)\n",
				sources[i].Name, len(r.Matches), len(r.ContextualMatches()))
		}
	}
	for _, e := range batch.Errors {
		fmt.Printf("  isolated failure: source %d (%s): %s\n", e.Index, e.Schema, e.Error)
	}

	// The listing shows every prepared catalog with its prep-cost and
	// pinned-artifact sizes; beyond -max-catalogs the LRU one is evicted.
	var list struct {
		Catalogs []service.CatalogInfo `json:"catalogs"`
	}
	decode(call(http.MethodGet, daemon.URL+"/v1/catalogs", nil), &list)
	fmt.Println("\n== GET /v1/catalogs ==")
	for _, c := range list.Catalogs {
		fmt.Printf("  %s gen %d: %d tables, %d rows, %d feature columns\n",
			c.Name, c.Generation, c.Tables, c.Rows, c.FeatureColumns)
	}
	// Output:
	// == PUT /v1/catalogs/inventory ==
	//   prepared generation 1: 2 tables, 300 rows, 2 classifiers
	//
	// == POST /v1/catalogs/inventory/match ==
	//   tenant1: 10 matches (10 contextual)
	//
	// == POST /v1/catalogs/inventory/match-batch ==
	//   tenant1: 10 matches (10 contextual)
	//   tenant2: 10 matches (10 contextual)
	//   isolated failure: source 2 (broken): source schema has no tables
	//
	// == GET /v1/catalogs ==
	//   inventory gen 1: 2 tables, 300 rows, 12 feature columns
}

// call sends payload, when non-nil, as a JSON body and returns the
// response body, exiting on a transport error or a status of 300 or
// above.
func call(method, url string, payload any) []byte {
	var body io.Reader
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			log.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("%s %s: %d: %s", method, req.URL.Path, resp.StatusCode, out)
	}
	return out
}

func decode(body []byte, v any) {
	if err := json.Unmarshal(body, v); err != nil {
		log.Fatal(err)
	}
}
