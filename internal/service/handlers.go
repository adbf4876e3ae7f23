package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctxmatch"
	"ctxmatch/internal/fault"
	"ctxmatch/internal/repository"
)

// Config assembles a Server. The zero value of every optional field
// picks a sensible default.
type Config struct {
	// Matcher is the shared matcher all catalogs are prepared on.
	// Required.
	Matcher *ctxmatch.Matcher
	// MaxCatalogs caps how many prepared catalogs the registry holds
	// before LRU eviction; default 8.
	MaxCatalogs int
	// MaxBodyBytes caps request body size; default 8 MiB, <0 disables.
	MaxBodyBytes int64
	// RequestTimeout bounds each request end to end; default 60s,
	// <0 disables.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently served requests (excluding
	// /healthz); default 2× the matcher's parallelism, <0 disables.
	MaxInFlight int
	// Logger receives structured request and lifecycle logs; default
	// slog.Default().
	Logger *slog.Logger
	// SnapshotDir, when non-empty, is where the server persists one
	// *.snap file per catalog (atomic temp+rename on every successful
	// prepare or snapshot upload) and where RestoreSnapshots
	// warm-restarts the registry from. Empty disables persistence; the
	// snapshot HTTP endpoints work either way. The directory is created
	// if missing.
	SnapshotDir string
	// RateLimit, when > 0, enables token-bucket admission control on
	// the match endpoints: each catalog admits RateLimit requests per
	// second (with RateBurst capacity), and /v1/match-any draws from
	// its own fleet-wide bucket at the same rate. Refused requests get
	// 429 with a Retry-After header. 0 disables.
	RateLimit float64
	// RateBurst is the token-bucket capacity per catalog; default
	// max(1, ceil(2×RateLimit)).
	RateBurst int
	// BreakerThreshold is how many consecutive match-any failures open
	// a catalog's circuit breaker (the catalog is then skipped with
	// reason "breaker_open" until the cooldown elapses); 0 selects the
	// repository default (5), < 0 disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker skips its catalog
	// before letting one trial match through; 0 selects the repository
	// default (10s).
	BreakerCooldown time.Duration
	// Faults, when non-nil, injects deterministic faults into the
	// snapshot store's filesystem operations and the fleet's
	// per-catalog match point — the chaos harness and the fault tests.
	// nil (the default) injects nothing.
	Faults *fault.Registry
}

// Server is the ctxmatchd HTTP service: the catalog registry plus the
// handler stack around it.
type Server struct {
	reg     *Registry
	fleet   *repository.Fleet
	metrics *serverMetrics
	limiter *limiterSet
	log     *slog.Logger
	cfg     Config
	sem     chan struct{}
	// fs is the snapshot store's filesystem — the real one, wrapped
	// with fault injection when Config.Faults is set.
	fs fault.FS

	// loading is true during a warm restart: the readiness probe
	// answers 503 until the snapshot directory has been replayed, so a
	// load balancer never routes traffic at a half-restored registry.
	loading atomic.Bool
	// restored counts catalogs installed from persisted snapshots over
	// the server's lifetime.
	restored atomic.Int64
}

// New validates cfg and builds the service.
func New(cfg Config) (*Server, error) {
	if cfg.Matcher == nil {
		return nil, fmt.Errorf("service: Config.Matcher is required")
	}
	if cfg.MaxCatalogs == 0 {
		cfg.MaxCatalogs = 8
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 2 * cfg.Matcher.Parallelism()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: snapshot dir: %w", err)
		}
	}
	s := &Server{
		reg:     NewRegistry(cfg.Matcher, cfg.MaxCatalogs),
		fleet:   repository.NewFleet(),
		limiter: newLimiterSet(cfg.RateLimit, cfg.RateBurst),
		log:     cfg.Logger,
		cfg:     cfg,
		fs:      fault.Inject(fault.OS{}, cfg.Faults),
	}
	s.fleet.SetBreaker(repository.BreakerConfig{
		Threshold: cfg.BreakerThreshold,
		Cooldown:  cfg.BreakerCooldown,
	})
	s.fleet.InjectFaults(cfg.Faults)
	// The fleet observes every registry mutation under the registry's
	// lock, so /v1/match-any always sees exactly the installed catalogs.
	s.reg.Observe(s.fleet)
	s.metrics = newServerMetrics(s)
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	return s, nil
}

// Registry exposes the catalog registry, mainly to tests and the
// process wrapper.
func (s *Server) Registry() *Registry { return s.reg }

// Fleet exposes the cross-catalog retrieval index, mainly to tests.
func (s *Server) Fleet() *repository.Fleet { return s.fleet }

// BeginWarmRestart marks the server as loading: the readiness probe
// answers 503 until FinishWarmRestart. Call before opening the
// listener when restoring snapshots concurrently with serving.
func (s *Server) BeginWarmRestart() { s.loading.Store(true) }

// FinishWarmRestart marks the warm restart complete; /healthz turns
// ready.
func (s *Server) FinishWarmRestart() { s.loading.Store(false) }

// Handler returns the daemon's full handler stack: recovery and request
// logging around everything; body-size limit, request timeout, metrics
// capture and the in-flight bound around the API routes (but not
// /healthz and /metrics, which must answer even when the matcher is
// saturated). The metrics middleware sits inside withTimeout — which
// clones the request — so it still holds the request object the mux
// stamps the route pattern onto, and outside withLimit so capacity
// refusals are counted too.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("GET /v1/catalogs", s.handleList)
	api.HandleFunc("PUT /v1/catalogs/{name}", s.handlePut)
	api.HandleFunc("PATCH /v1/catalogs/{name}", s.handlePatch)
	api.HandleFunc("DELETE /v1/catalogs/{name}", s.handleDelete)
	api.HandleFunc("GET /v1/catalogs/{name}/snapshot", s.handleGetSnapshot)
	api.HandleFunc("PUT /v1/catalogs/{name}/snapshot", s.handlePutSnapshot)
	api.HandleFunc("POST /v1/catalogs/{name}/match", s.handleMatch)
	api.HandleFunc("POST /v1/catalogs/{name}/match-batch", s.handleMatchBatch)
	api.HandleFunc("POST /v1/match-any", s.handleMatchAny)

	mw := s.withMetrics()
	root := http.NewServeMux()
	root.Handle("GET /healthz", mw(http.HandlerFunc(s.handleHealth)))
	root.Handle("GET /metrics", mw(http.HandlerFunc(s.handleMetrics)))
	root.Handle("/v1/", chain(api,
		withMaxBytes(s.cfg.MaxBodyBytes),
		withTimeout(s.cfg.RequestTimeout),
		mw,
		withLimit(s.sem),
	))
	return chain(root, withRecover(s.log), withLogging(s.log))
}

// buildInfo reads the binary's module version and VCS revision once.
var buildInfo = sync.OnceValues(func() (version, revision string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	version = bi.Main.Version
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return version, revision
})

// handleHealth is the readiness probe: 503 "loading" while a warm
// restart is replaying the snapshot directory, otherwise 200 with the
// catalog count, how many catalogs were restored from snapshots, and
// the binary's build identity.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	version, revision := buildInfo()
	resp := healthResponse{
		Status:   "ok",
		Catalogs: s.reg.Len(),
		Restored: s.restored.Load(),
		Version:  version,
		Revision: revision,
	}
	if s.loading.Load() {
		resp.Status = "loading"
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// admit runs token-bucket admission for key; on refusal it writes the
// 429 (with Retry-After rounded up to whole seconds) and reports false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, key string) bool {
	ok, retryAfter := s.limiter.allow(key)
	if ok {
		return true
	}
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	}
	s.metrics.rateLimited.With(route).Inc()
	writeError(w, http.StatusTooManyRequests, "rate limit exceeded, retry later")
	return false
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := s.reg.List()
	if infos == nil {
		infos = []CatalogInfo{}
	}
	s.writeJSON(w, http.StatusOK, listResponse{Catalogs: infos})
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if len(name) > 128 {
		writeError(w, http.StatusBadRequest, "catalog name longer than 128 bytes")
		return
	}
	schema, err := readSchema(r, name, bareDoc)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	info, evicted, replaced, err := s.reg.Prepare(r.Context(), name, schema)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	for _, victim := range evicted {
		s.log.Info("catalog evicted", "name", victim, "for", name)
		// The healthy snapshot is kept for a cheap re-restore, but any
		// quarantined *.corrupt sibling is dead weight.
		s.removeQuarantined(victim)
	}
	s.log.Info("catalog prepared", "name", name, "generation", info.Generation,
		"prepared_ms", time.Duration(info.PreparedNS).Milliseconds(),
		"tables", info.Tables, "rows", info.Rows)
	// Persist the fresh generation eagerly; a failure only defers it to
	// the drain-time flush (the entry stays dirty), never fails the
	// upload.
	if s.cfg.SnapshotDir != "" {
		if t, ok := s.reg.Get(name); ok {
			if err := s.persistSnapshot(name, t); err != nil {
				s.log.Warn("persisting snapshot", "name", name, "err", err)
			} else {
				s.reg.MarkClean(name, t)
			}
		}
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	s.writeJSON(w, status, info)
}

// handlePatch applies a catalog delta to name's current generation: an
// incremental re-prepare that rescans only the touched tables and
// rebuilds the target classifiers from the column vectors, then swaps
// the result in atomically as a new generation (observers notified,
// entry marked dirty and eagerly re-persisted when a snapshot directory
// is configured). The response is the new generation's CatalogInfo —
// the same body PUT returns — with PreparedNS measuring the delta
// rebuild.
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	var doc CatalogDeltaDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		writeError(w, http.StatusBadRequest, "decoding catalog delta: "+err.Error())
		return
	}
	delta, err := doc.Build()
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	info, evicted, found, err := s.reg.Update(r.Context(), name, delta)
	if !found {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no catalog %q", name))
		return
	}
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	s.metrics.catalogUpdates.With(name).Inc()
	s.metrics.updateTablesTouched.Add(int64(len(delta.Add) + len(delta.Replace) + len(delta.Drop)))
	for _, victim := range evicted {
		s.log.Info("catalog evicted", "name", victim, "for", name)
		// The healthy snapshot is kept for a cheap re-restore, but any
		// quarantined *.corrupt sibling is dead weight.
		s.removeQuarantined(victim)
	}
	s.log.Info("catalog updated", "name", name, "generation", info.Generation,
		"updated_ms", time.Duration(info.PreparedNS).Milliseconds(),
		"add", len(delta.Add), "replace", len(delta.Replace), "drop", len(delta.Drop))
	// Like handlePut: persist the fresh generation eagerly; a failure
	// only defers it to the drain-time flush (the entry stays dirty).
	if s.cfg.SnapshotDir != "" {
		if t, ok := s.reg.Get(name); ok {
			if err := s.persistSnapshot(name, t); err != nil {
				s.log.Warn("persisting snapshot", "name", name, "err", err)
			} else {
				s.reg.MarkClean(name, t)
			}
		}
	}
	s.writeJSON(w, http.StatusOK, info)
}

// handleGetSnapshot serves the catalog's versioned binary snapshot —
// the replication download. The snapshot is built into memory first so
// a serialization failure is still a clean 500 instead of a torn body.
func (s *Server) handleGetSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	target, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no catalog %q", name))
		return
	}
	var buf bytes.Buffer
	if _, err := target.WriteSnapshot(&buf); err != nil {
		s.writeMappedError(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.log.Warn("writing snapshot response", "name", name, "err", err)
	}
}

// handlePutSnapshot installs a catalog from an uploaded snapshot — the
// replication upload. No preparation runs: the handle is restored by
// ctxmatch.LoadTarget and published under the name with Prepare's
// replace/evict semantics, and the raw uploaded bytes are persisted
// verbatim when a snapshot directory is configured.
func (s *Server) handlePutSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if len(name) > 128 {
		writeError(w, http.StatusBadRequest, "catalog name longer than 128 bytes")
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	target, err := ctxmatch.LoadTarget(bytes.NewReader(body))
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	info, evicted, replaced := s.reg.Install(name, target)
	for _, victim := range evicted {
		s.log.Info("catalog evicted", "name", victim, "for", name)
		// The healthy snapshot is kept for a cheap re-restore, but any
		// quarantined *.corrupt sibling is dead weight.
		s.removeQuarantined(victim)
	}
	s.log.Info("catalog restored from uploaded snapshot", "name", name,
		"generation", info.Generation, "bytes", len(body),
		"tables", info.Tables, "rows", info.Rows)
	if s.cfg.SnapshotDir != "" {
		if err := s.persistRaw(name, body); err != nil {
			s.log.Warn("persisting snapshot", "name", name, "err", err)
		} else {
			s.reg.MarkClean(name, target)
		}
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	s.writeJSON(w, status, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Delete(name) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no catalog %q", name))
		return
	}
	// A deletion is explicit intent, so the persisted snapshot goes too
	// (unlike LRU eviction, which keeps the file for a cheap re-restore).
	s.removeSnapshot(name)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	target, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no catalog %q", name))
		return
	}
	if !s.admit(w, r, name) {
		return
	}
	source, err := readSchema(r, "source", sourceDoc)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	res, err := target.Match(r.Context(), source)
	if err != nil {
		s.writeMappedError(w, err, http.StatusInternalServerError)
		return
	}
	s.metrics.catalogMatches.With(name).Inc()
	s.writeJSON(w, http.StatusOK, res)
}

// handleMatchAny answers "which catalog matches this source?" across
// the whole registry: top-k retrieval over every installed catalog's
// candidate index, exact prepared matches on the survivors, catalogs
// ranked best-first. Admission draws from a fleet-wide bucket — one
// request touches many catalogs.
func (s *Server) handleMatchAny(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, fleetKey) {
		return
	}
	req, err := readMatchAnyRequest(r)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	source, err := req.Source.Build("source")
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	rep, err := s.fleet.MatchAny(r.Context(), source, repository.Query{K: req.K, MinScore: req.MinScore})
	if err != nil {
		s.writeMappedError(w, err, http.StatusInternalServerError)
		return
	}
	s.metrics.matchAnyConsidered.Add(int64(rep.Considered))
	s.metrics.matchAnyPruned.Add(int64(rep.Pruned))
	s.metrics.matchAnyMatched.Add(int64(rep.Matched))
	if rep.Degraded {
		s.metrics.degraded.Inc()
	}
	resp := MatchAnyResponse{
		Catalogs:   make([]MatchAnyCatalog, 0, len(rep.Ranked)),
		Retrieval:  rep.Retrieval,
		Considered: rep.Considered,
		Pruned:     rep.Pruned,
		Matched:    rep.Matched,
		Degraded:   rep.Degraded,
		Skipped:    rep.Skipped,
	}
	for _, cm := range rep.Ranked {
		s.metrics.catalogMatches.With(cm.Name).Inc()
		resp.Catalogs = append(resp.Catalogs, MatchAnyCatalog{
			Name:       cm.Name,
			Generation: cm.Generation,
			Evidence:   cm.Evidence,
			Score:      cm.Score,
			Result:     cm.Result,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMatchBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	target, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no catalog %q", name))
		return
	}
	if !s.admit(w, r, name) {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest)
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch request: "+err.Error())
		return
	}
	sources := make([]*ctxmatch.Schema, len(req.Sources))
	resp := BatchResponse{Results: make([]json.RawMessage, len(req.Sources))}
	for i, doc := range req.Sources {
		src, err := doc.Build(fmt.Sprintf("source%d", i))
		if err != nil {
			// A malformed document is isolated exactly like a failed
			// match: its slot stays null, siblings still run.
			resp.Errors = append(resp.Errors, BatchError{Index: i, Schema: doc.Name, Error: err.Error()})
			continue
		}
		sources[i] = src
	}
	// MatchAll's error is per-source (*SourceError via errors.Join);
	// fold it into the response rather than failing the batch. A
	// request-wide death (timeout, client gone) is reported whole below.
	results, err := target.MatchAll(r.Context(), sources)
	if ctxErr := r.Context().Err(); ctxErr != nil {
		s.writeMappedError(w, ctxErr, http.StatusInternalServerError)
		return
	}
	skipped := make(map[int]bool, len(resp.Errors))
	for _, be := range resp.Errors {
		skipped[be.Index] = true
	}
	for i, res := range results {
		if res == nil || skipped[i] {
			continue
		}
		raw, err := json.Marshal(res)
		if err != nil {
			s.writeMappedError(w, err, http.StatusInternalServerError)
			return
		}
		resp.Results[i] = raw
	}
	var srcErrs []error
	if err != nil {
		// errors.Join exposes Unwrap() []error.
		var multi interface{ Unwrap() []error }
		if errors.As(err, &multi) {
			srcErrs = multi.Unwrap()
		} else {
			srcErrs = []error{err}
		}
	}
	for _, e := range srcErrs {
		var se *ctxmatch.SourceError
		if errors.As(e, &se) {
			if skipped[se.Index] {
				continue // already reported as a parse failure
			}
			resp.Errors = append(resp.Errors, BatchError{Index: se.Index, Schema: se.Schema, Error: se.Err.Error()})
			continue
		}
		s.writeMappedError(w, e, http.StatusInternalServerError)
		return
	}
	// Order per-source errors by index so responses are deterministic
	// regardless of which worker goroutine failed first.
	slices.SortFunc(resp.Errors, func(a, b BatchError) int { return cmp.Compare(a.Index, b.Index) })
	var matched int64
	for _, raw := range resp.Results {
		if raw != nil {
			matched++
		}
	}
	if matched > 0 {
		s.metrics.catalogMatches.With(name).Add(matched)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeJSON writes a JSON response with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; all we can do is log.
		s.log.Warn("encoding response", "err", err)
	}
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The envelope is two fixed keys around a string; encoding cannot
	// fail, and the connection write has no recovery path here anyway.
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// writeMappedError translates library and transport errors into
// statuses: empty/invalid inputs 400, oversized bodies 413, timeouts
// 504, client-canceled requests 503, anything else fallback.
func (s *Server) writeMappedError(w http.ResponseWriter, err error, fallback int) {
	status := fallback
	var maxBytes *http.MaxBytesError
	switch {
	case errors.As(err, &maxBytes):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ctxmatch.ErrEmptySchema),
		errors.Is(err, ctxmatch.ErrInvalidDelta),
		errors.Is(err, ctxmatch.ErrInvalidOption),
		errors.Is(err, ctxmatch.ErrSnapshotFormat),
		errors.Is(err, ctxmatch.ErrSnapshotVersion),
		errors.Is(err, ctxmatch.ErrSnapshotChecksum),
		errors.Is(err, ctxmatch.ErrSnapshotTruncated),
		errors.Is(err, ctxmatch.ErrSnapshotUnsupported):
		status = http.StatusBadRequest
	}
	if status >= 500 {
		s.log.Error("request failed", "status", status, "err", err)
	}
	writeError(w, status, err.Error())
}
