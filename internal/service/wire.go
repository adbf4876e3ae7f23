// Package service implements the ctxmatchd HTTP daemon: a named
// registry of prepared target catalogs (Matcher.Prepare behind
// PUT /v1/catalogs/{name}, with LRU eviction beyond a configurable cap
// and an atomic swap on re-prepare so in-flight readers are never
// blocked or failed) and match traffic against them
// (POST /v1/catalogs/{name}/match for one source,
// POST /v1/catalogs/{name}/match-batch fanning a batch through
// Target.MatchAll with per-source error isolation), plus GET /healthz
// and GET /v1/catalogs listing prepared handles with prep-time/size
// stats.
//
// Prepared catalogs are portable: GET /v1/catalogs/{name}/snapshot
// downloads the handle's versioned binary snapshot and
// PUT /v1/catalogs/{name}/snapshot installs one without re-preparing —
// the replication path between daemons. With Config.SnapshotDir set the
// server also persists every prepared catalog to disk (atomic
// temp+rename, one *.snap file per name) and RestoreSnapshots
// warm-restarts the whole registry from that directory in milliseconds
// before the listener opens; FlushSnapshots writes any still-dirty
// catalogs at drain time.
//
// The daemon layer adds what the library deliberately leaves out:
// per-request timeouts, body-size limits, bounded in-flight
// concurrency, structured request logging and graceful drain — see
// cmd/ctxmatchd for the process wrapper.
//
// Match responses are the library's versioned Result wire envelope
// exactly as encode.go documents it (the daemon writes it compact,
// cmd/ctxmatch -json indented — identical JSON either way): a client
// that already decodes one decodes the other with the same code.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"ctxmatch"
	"ctxmatch/internal/repository"
)

// TableDoc is one table of an uploaded schema: the sample instance as
// CSV with the library's typed header ("name:type" columns — see
// ctxmatch.ReadCSV).
type TableDoc struct {
	// Name names the table inside its schema.
	Name string `json:"name"`
	// CSV holds the typed-header CSV encoding of the table.
	CSV string `json:"csv"`
}

// SchemaDoc is the JSON upload format for a schema: a named collection
// of CSV-encoded tables. It is what PUT /v1/catalogs/{name} and the
// match endpoints accept under Content-Type application/json.
type SchemaDoc struct {
	// Name names the schema; when empty the server substitutes a
	// context-appropriate fallback (the catalog name, or "source").
	Name string `json:"name,omitempty"`
	// Tables holds the schema's tables; at least one is required.
	Tables []TableDoc `json:"tables"`
}

// DocFromSchema encodes a live schema as its upload document, the
// client-side inverse of SchemaDoc.Build.
func DocFromSchema(s *ctxmatch.Schema) (SchemaDoc, error) {
	doc := SchemaDoc{Name: s.Name}
	for _, t := range s.Tables {
		var b strings.Builder
		if err := t.WriteCSV(&b); err != nil {
			return SchemaDoc{}, fmt.Errorf("encoding table %q: %w", t.Name, err)
		}
		doc.Tables = append(doc.Tables, TableDoc{Name: t.Name, CSV: b.String()})
	}
	return doc, nil
}

// Build parses the document into a live schema, naming it fallback when
// the document carries no name of its own.
func (d SchemaDoc) Build(fallback string) (*ctxmatch.Schema, error) {
	name := d.Name
	if name == "" {
		name = fallback
	}
	s := ctxmatch.NewSchema(name)
	for i, td := range d.Tables {
		if td.Name == "" {
			return nil, fmt.Errorf("table %d has no name", i)
		}
		t, err := ctxmatch.ReadCSV(td.Name, strings.NewReader(td.CSV))
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", td.Name, err)
		}
		if err := s.Add(t); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// CatalogDeltaDoc is the JSON body of PATCH /v1/catalogs/{name}: a
// catalog edit shipped as CSV-encoded tables to add, tables to replace
// wholesale by name (the way to ship row changes), and table names to
// drop — ctxmatch.CatalogDelta over the wire. The registry applies it
// incrementally: only touched tables are rescanned, the target
// classifiers are rebuilt from the resulting column vectors, and the
// result swaps in atomically as a new generation, marked dirty for the
// drain-time snapshot flush.
type CatalogDeltaDoc struct {
	// Add holds tables to append; their names must be new to the catalog.
	Add []TableDoc `json:"add,omitempty"`
	// Replace holds full replacement tables for names the catalog
	// already has.
	Replace []TableDoc `json:"replace,omitempty"`
	// Drop lists table names to remove.
	Drop []string `json:"drop,omitempty"`
}

// Build parses the document's tables into a live delta. Structural
// validity against the target catalog (unknown names, duplicates,
// emptiness) is checked later by Target.Update, which reports
// ctxmatch.ErrInvalidDelta.
func (d CatalogDeltaDoc) Build() (ctxmatch.CatalogDelta, error) {
	buildTables := func(docs []TableDoc, list string) ([]*ctxmatch.Table, error) {
		var ts []*ctxmatch.Table
		for i, td := range docs {
			if td.Name == "" {
				return nil, fmt.Errorf("%s table %d has no name", list, i)
			}
			t, err := ctxmatch.ReadCSV(td.Name, strings.NewReader(td.CSV))
			if err != nil {
				return nil, fmt.Errorf("%s table %q: %w", list, td.Name, err)
			}
			ts = append(ts, t)
		}
		return ts, nil
	}
	var delta ctxmatch.CatalogDelta
	var err error
	if delta.Add, err = buildTables(d.Add, "add"); err != nil {
		return ctxmatch.CatalogDelta{}, err
	}
	if delta.Replace, err = buildTables(d.Replace, "replace"); err != nil {
		return ctxmatch.CatalogDelta{}, err
	}
	delta.Drop = d.Drop
	return delta, nil
}

// CatalogInfo describes one prepared catalog for the listing endpoint:
// identity, preparation cost and pinned-artifact sizes
// (ctxmatch.TargetStats over the wire).
type CatalogInfo struct {
	// Name is the registry name the catalog was uploaded under.
	Name string `json:"name"`
	// Generation counts the times this name has been (re-)prepared,
	// starting at 1.
	Generation int `json:"generation"`
	// PreparedAt is when the current generation finished preparing.
	PreparedAt time.Time `json:"prepared_at"`
	// PreparedNS is the wall-clock preparation cost in nanoseconds.
	PreparedNS int64 `json:"prepared_ns"`
	// Tables, Rows and Attributes size the catalog's sample instance.
	Tables     int `json:"tables"`
	Rows       int `json:"rows"`
	Attributes int `json:"attributes"`
	// Classifiers and FeatureColumns size the pinned artifacts.
	Classifiers    int `json:"classifiers"`
	FeatureColumns int `json:"feature_columns"`
	// DictGrams and DictBytes size the interned gram dictionary the
	// prepared handle pins (see ctxmatch.TargetStats).
	DictGrams int `json:"dict_grams"`
	DictBytes int `json:"dict_bytes"`
	// IndexPostings and IndexBytes size the inverted gram-ID candidate
	// index of the prepared handle; IndexHitRate is the live fraction
	// of column pairs the index could not prune (refreshed on every
	// listing — it converges as match traffic flows).
	IndexPostings int     `json:"index_postings"`
	IndexBytes    int     `json:"index_bytes"`
	IndexHitRate  float64 `json:"index_hit_rate"`
	// SnapshotBytes is the size of the snapshot the handle was restored
	// from, zero for a catalog prepared in-process; see
	// RestoredFromSnapshot. The omitempty keeps pre-snapshot clients'
	// listings unchanged.
	SnapshotBytes int `json:"snapshot_bytes,omitempty"`
	// RestoredFromSnapshot reports whether the catalog was installed by
	// restoring a snapshot (startup warm-restart or PUT …/snapshot)
	// rather than prepared from an uploaded sample; PreparedNS then
	// measures the load, not a preparation.
	RestoredFromSnapshot bool `json:"restored_from_snapshot,omitempty"`
	// Matches counts this generation's successful prepared matches —
	// the per-catalog traffic figure, refreshed from the live handle on
	// every listing.
	Matches int64 `json:"matches"`
}

// matchRequest is the JSON body of POST /v1/catalogs/{name}/match.
type matchRequest struct {
	Source SchemaDoc `json:"source"`
}

// MatchAnyRequest is the JSON body of POST /v1/match-any: a source
// schema plus the retrieval knobs.
type MatchAnyRequest struct {
	// Source is the schema to match against every installed catalog.
	Source SchemaDoc `json:"source"`
	// K is how many top-scoring catalogs receive the exact prepared
	// match; 0 means the server default (3). A K at or above the
	// catalog count matches every catalog.
	K int `json:"k,omitempty"`
	// MinScore is the per-column evidence floor in [0, 1): source
	// columns whose best cosine against a catalog falls below it
	// contribute no evidence. Raising it prunes more aggressively.
	MinScore float64 `json:"min_score,omitempty"`
}

// MatchAnyCatalog is one ranked catalog of a match-any response.
type MatchAnyCatalog struct {
	// Name and Generation identify the catalog entry that was matched.
	Name       string `json:"name"`
	Generation int    `json:"generation"`
	// Evidence is the catalog's retrieval score (0 for catalogs without
	// a candidate index).
	Evidence float64 `json:"evidence"`
	// Score ranks the catalog: the sum of the confidences of its
	// result's selected matches.
	Score float64 `json:"score"`
	// Result is the catalog's full match result — the same versioned
	// wire envelope POST …/match returns. Catalogs whose match failed
	// or was skipped appear in the response's Skipped list instead.
	Result *ctxmatch.Result `json:"result,omitempty"`
}

// MatchAnyResponse is the body of POST /v1/match-any: the exact-matched
// catalogs ranked best-first, the per-catalog retrieval scores, and the
// fleet-level counts.
type MatchAnyResponse struct {
	Catalogs []MatchAnyCatalog `json:"catalogs"`
	// Retrieval lists every considered catalog's evidence (survivors
	// first in rank order, pruned catalogs last).
	Retrieval []repository.CatalogScore `json:"retrieval,omitempty"`
	// Considered, Pruned and Matched count the installed catalogs, the
	// ones the top-k floor cut off, and the ones exact-matched.
	Considered int `json:"considered"`
	Pruned     int `json:"pruned"`
	Matched    int `json:"matched"`
	// Degraded reports a partial answer: at least one catalog was
	// skipped (deadline budget, isolated match failure, or an open
	// circuit breaker). Results for the catalogs in Catalogs are still
	// exact — bit-identical to a non-degraded response restricted to
	// them — so callers can use them and retry only the skipped set.
	Degraded bool `json:"degraded,omitempty"`
	// Skipped lists the catalogs left out and why ("retrieve_budget",
	// "deadline", "canceled", "breaker_open", "error").
	Skipped []repository.SkippedCatalog `json:"skipped,omitempty"`
}

// readMatchAnyRequest decodes a match-any body: application/json is
// the MatchAnyRequest envelope; anything CSV-shaped becomes a
// single-table source with default knobs, mirroring the match
// endpoint's CSV convenience.
func readMatchAnyRequest(r *http.Request) (MatchAnyRequest, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return MatchAnyRequest{}, err
	}
	ct := r.Header.Get("Content-Type")
	if ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			ct = mt
		}
	}
	if ct == "application/json" {
		var req MatchAnyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return MatchAnyRequest{}, fmt.Errorf("decoding match-any request: %w", err)
		}
		if len(req.Source.Tables) == 0 {
			return MatchAnyRequest{}, fmt.Errorf("match-any request has no source tables")
		}
		return req, nil
	}
	return MatchAnyRequest{
		Source: SchemaDoc{Tables: []TableDoc{{Name: "source", CSV: string(body)}}},
	}, nil
}

// batchRequest is the JSON body of POST /v1/catalogs/{name}/match-batch.
type batchRequest struct {
	Sources []SchemaDoc `json:"sources"`
}

// BatchError reports the isolated failure of one source of a batch.
type BatchError struct {
	// Index is the source's position in the request's sources array.
	Index int `json:"index"`
	// Schema is the failed source schema's name, "" for a nil one.
	Schema string `json:"schema,omitempty"`
	// Error is the failure rendered as text.
	Error string `json:"error"`
}

// BatchResponse is the body of a match-batch response. Results is
// index-aligned with the request's sources; a failed source holds null
// there and one entry in Errors, without failing its siblings.
type BatchResponse struct {
	// Results holds one Result wire envelope (or null) per source.
	Results []json.RawMessage `json:"results"`
	// Errors lists the per-source failures, in index order.
	Errors []BatchError `json:"errors,omitempty"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// listResponse is the body of GET /v1/catalogs.
type listResponse struct {
	Catalogs []CatalogInfo `json:"catalogs"`
}

// healthResponse is the body of GET /healthz: readiness ("ok", or
// "loading" with status 503 while a warm restart replays the snapshot
// directory), registry occupancy, how many catalogs were restored from
// persisted snapshots, and the binary's build identity.
type healthResponse struct {
	Status   string `json:"status"`
	Catalogs int    `json:"catalogs"`
	Restored int64  `json:"restored"`
	Version  string `json:"version,omitempty"`
	Revision string `json:"revision,omitempty"`
}

// readSchema decodes a request body into a schema. application/json
// bodies are SchemaDoc (optionally wrapped — see wrap); anything
// CSV-shaped (text/csv, or no content type) is a single typed-header
// CSV table, named fallback, forming a one-table schema of the same
// name.
func readSchema(r *http.Request, fallback string, wrap func([]byte) (SchemaDoc, error)) (*ctxmatch.Schema, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	ct := r.Header.Get("Content-Type")
	if ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			ct = mt
		}
	}
	if ct == "application/json" {
		doc, err := wrap(body)
		if err != nil {
			return nil, err
		}
		if len(doc.Tables) == 0 {
			return nil, fmt.Errorf("schema document has no tables")
		}
		return doc.Build(fallback)
	}
	t, err := ctxmatch.ReadCSV(fallback, strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	s := ctxmatch.NewSchema(fallback)
	if err := s.Add(t); err != nil {
		return nil, err
	}
	return s, nil
}

// bareDoc decodes a body that is the SchemaDoc itself (catalog upload).
func bareDoc(body []byte) (SchemaDoc, error) {
	var doc SchemaDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return SchemaDoc{}, fmt.Errorf("decoding schema document: %w", err)
	}
	return doc, nil
}

// sourceDoc decodes a body of the form {"source": SchemaDoc} (match).
func sourceDoc(body []byte) (SchemaDoc, error) {
	var req matchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return SchemaDoc{}, fmt.Errorf("decoding match request: %w", err)
	}
	return req.Source, nil
}
