package service

import (
	"net/http"
	"strconv"
	"time"

	"ctxmatch/internal/metrics"
	"ctxmatch/internal/repository"
)

// serverMetrics is the daemon's instrumentation: one registry rendered
// at GET /metrics in the Prometheus text format, populated by the
// innermost middleware (per-route request counts and latency, in-flight
// gauge) and by the handlers (per-catalog match counts, match-any
// retrieval counters, admission refusals, snapshot lifecycle).
type serverMetrics struct {
	reg *metrics.Registry

	requests *metrics.CounterVec   // route, code
	latency  *metrics.HistogramVec // route
	inFlight *metrics.Gauge

	catalogMatches *metrics.CounterVec // catalog
	rateLimited    *metrics.CounterVec // route

	catalogUpdates      *metrics.CounterVec // catalog
	updateTablesTouched *metrics.Counter

	matchAnyConsidered *metrics.Counter
	matchAnyPruned     *metrics.Counter
	matchAnyMatched    *metrics.Counter
	degraded           *metrics.Counter

	snapshotRestores       *metrics.Counter
	snapshotRestoreFailure *metrics.Counter
	snapshotPersists       *metrics.Counter
	snapshotQuarantined    *metrics.Counter
}

// newServerMetrics builds the metric families and wires the
// scrape-time gauges that read live server state.
func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		reg: r,
		requests: r.NewCounterVec("ctxmatchd_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		latency: r.NewHistogramVec("ctxmatchd_http_request_duration_seconds",
			"HTTP request latency in seconds, by route pattern.", nil, "route"),
		catalogMatches: r.NewCounterVec("ctxmatchd_catalog_matches_total",
			"Successful prepared matches served, by catalog.", "catalog"),
		rateLimited: r.NewCounterVec("ctxmatchd_rate_limited_total",
			"Requests refused by token-bucket admission control, by route pattern.", "route"),
		catalogUpdates: r.NewCounterVec("ctxmatchd_catalog_updates_total",
			"Incremental catalog delta updates applied (PATCH), by catalog.", "catalog"),
		updateTablesTouched: r.NewCounter("ctxmatchd_catalog_update_tables_total",
			"Tables added, replaced or dropped by catalog delta updates."),
		matchAnyConsidered: r.NewCounter("ctxmatchd_matchany_catalogs_considered_total",
			"Catalogs considered by match-any retrieval."),
		matchAnyPruned: r.NewCounter("ctxmatchd_matchany_catalogs_pruned_total",
			"Catalogs pruned by the match-any top-k floor without a full scan."),
		matchAnyMatched: r.NewCounter("ctxmatchd_matchany_catalogs_matched_total",
			"Catalogs that received the exact prepared match during match-any."),
		degraded: r.NewCounter("ctxmatchd_degraded_total",
			"Match-any responses returned degraded: exact results for completed catalogs plus a skipped list."),
		snapshotRestores: r.NewCounter("ctxmatchd_snapshot_restores_total",
			"Catalogs restored from persisted snapshots (warm restart)."),
		snapshotRestoreFailure: r.NewCounter("ctxmatchd_snapshot_restore_failures_total",
			"Persisted snapshots skipped as unreadable or corrupt during warm restart."),
		snapshotPersists: r.NewCounter("ctxmatchd_snapshot_persists_total",
			"Catalog snapshots persisted to the snapshot directory."),
		snapshotQuarantined: r.NewCounter("ctxmatchd_snapshot_quarantined_total",
			"Corrupt snapshots quarantined (renamed to *.corrupt) during warm restart."),
	}
	m.inFlight = r.NewGauge("ctxmatchd_http_in_flight_requests",
		"API requests currently being served.")
	r.NewGaugeFunc("ctxmatchd_catalogs",
		"Prepared catalogs currently installed in the registry.",
		func() float64 { return float64(s.reg.Len()) })
	r.NewGaugeFunc("ctxmatchd_breaker_open",
		"Catalogs whose match-any circuit breaker is currently open.",
		func() float64 { return float64(s.fleet.OpenBreakers()) })
	// The fused retrieval index behind /v1/match-any: the published
	// version's size (slots, global grams, estimated bytes) and the
	// fleet's lifetime bound-pass effectiveness (probes, catalog-columns
	// skipped on the bound alone). A scrape reads the published state
	// without a lock, like any match-any.
	fusedGauge := func(name, help string, field func(s repository.FusedStats) float64) {
		r.NewGaugeFunc("ctxmatchd_fused_"+name, help,
			func() float64 { return field(s.fleet.FusedStats()) })
	}
	fusedGauge("slots", "Fused index slot-table length, free positions included.",
		func(st repository.FusedStats) float64 { return float64(st.Slots) })
	fusedGauge("grams", "Grams in the fused index's global dictionary, those held only by departed catalogs included.",
		func(st repository.FusedStats) float64 { return float64(st.Grams) })
	fusedGauge("bytes", "Estimated memory held by the fused index: dictionary, slot table and inverse remaps.",
		func(st repository.FusedStats) float64 { return float64(st.Bytes) })
	fusedGauge("probes_total", "Fused bound passes served (one per source column per retrieval).",
		func(st repository.FusedStats) float64 { return float64(st.Probes) })
	fusedGauge("bound_skips_total", "Catalog-columns whose exact scan the fused bound alone skipped.",
		func(st repository.FusedStats) float64 { return float64(st.BoundSkips) })
	r.NewGaugeFunc("ctxmatchd_index_hit_rate",
		"Mean candidate-index hit rate across installed catalogs (fraction of column pairs not pruned).",
		func() float64 {
			infos := s.reg.List()
			if len(infos) == 0 {
				return 0
			}
			var sum float64
			for _, info := range infos {
				sum += info.IndexHitRate
			}
			return sum / float64(len(infos))
		})
	return m
}

// withMetrics is the innermost API middleware: it must run inside
// withTimeout (which clones the request) so the *http.Request it holds
// is the same object the ServeMux stamps the matched route pattern
// onto, readable after next returns.
func (s *Server) withMetrics() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			s.metrics.inFlight.Add(1)
			start := time.Now()
			next.ServeHTTP(sw, r)
			s.metrics.inFlight.Add(-1)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			route := r.Pattern
			if route == "" {
				// No pattern matched (404/405 from the mux): a fixed
				// label keeps cardinality bounded against path scans.
				route = "unmatched"
			}
			s.metrics.requests.With(route, strconv.Itoa(sw.status)).Inc()
			s.metrics.latency.With(route).Observe(time.Since(start).Seconds())
		})
	}
}

// handleMetrics renders the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.Collect(w); err != nil {
		s.log.Warn("writing metrics", "err", err)
	}
}
