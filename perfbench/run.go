package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/service"
)

// setupReps is how many times a run sets up; setup_s is their median
// and the last set-up serves the traffic.
const setupReps = 3

// restartReps is how many warm restarts each round ends with;
// restart_s is the median over all rounds.
const restartReps = 2

// seqWrites is how many writes the sequential pass of the traced run
// makes to attribute process-wide counters to single writes.
const seqWrites = 8

// runCtx is one run's inputs and settings.
type runCtx struct {
	w       *workload
	seed    int64
	secs    float64
	trace   bool
	dir     string // temporary directory for snapshots, removed at exit
	workers int

	pool []*source
	cats []*catalog
	refs [][]byte // exact expected read bodies; nil on churn
}

func (r *runCtx) generate() error {
	var err error
	if r.pool, err = sourcePool(); err != nil {
		return err
	}
	if r.w.churn {
		r.cats, err = buildCatalogs("fleet", fleetRoster())
	} else {
		r.cats, err = buildCatalogs("enterprise10k", []datagen.InventoryConfig{enterprise10k})
	}
	return err
}

// writePhaseOps is the number of catalog-match's back-to-back writes,
// split evenly over the rounds: enough for ten samples beyond the 90th
// percentile.
const writePhaseOps = 110

// rounds is how many rounds a run's traffic is split into. Each round
// runs every phase in turn — an open-loop segment, a closed-loop
// segment, catalog-match's write burst and the warm restarts — so every
// metric draws its samples from across the whole run rather than from
// one stretch of it. On a shared host whose speed wanders over tens of
// seconds, a phase confined to a few seconds moves from run to run with
// the host.
const rounds = 5

// round is one round's share of the schedule.
type round struct {
	open         []*op // open-loop segment: reads, plus writes on churn
	closedWrites []*op // writes that continue through the closed-loop segment
	writes       []*op // back-to-back write burst (catalog-match)
}

// plan is a run's operation schedule. Building it twice from the same
// seed gives identical schedules with independent write chains — one
// for the served instance, one for the traced one.
type plan struct {
	rounds      []round
	closedReads []int         // source order of the closed-loop segments, in pool blocks
	closedD     time.Duration // each closed-loop segment's length, before rounding up to a block
	chain       *writeChain
	wo          []int // write order of the other writes, continued by the sequential pass
	nextW       int
}

// plan builds the schedule. The open-loop reads, the open-loop writes
// and the other writes are one seeded sequence each, cut in order into
// equal shares per round. Without withClosed the closed-loop writes are
// left out but their places in the write order kept, so the other
// writes go to the same catalogs.
func (r *runCtx) plan(withClosed bool) *plan {
	w := r.w
	rng := rand.New(rand.NewSource(r.seed*7919 + 17))
	p := &plan{chain: newWriteChain(len(r.cats)), rounds: make([]round, rounds)}
	nOpen := int(w.open * r.secs * w.readRate)
	nOpenW, nClosedW, nBurstW := 0, 0, writePhaseOps
	if w.churn {
		nOpenW = int(w.open * r.secs * w.writeRate)
		nClosedW = int(w.closed * r.secs * w.writeRate)
		nBurstW = 0
	}
	// The open-loop writes take their catalogs from an order of their
	// own, so exactly one in eight of them goes to the enterprise
	// catalog however the rounds cut the sequence.
	openWO := writeOrder(rng, r.cats, nOpenW)
	p.wo = writeOrder(rng, r.cats, nClosedW+nBurstW+seqWrites)
	reads := readOrder(rng, nOpen)
	p.closedReads = readOrder(rng, 1<<14)
	p.closedD = time.Duration(w.closed * r.secs / rounds * float64(time.Second))
	// share is round k's count of n ops.
	share := func(n, k int) int { return (k+1)*n/rounds - k*n/rounds }
	for k := range p.rounds {
		rd := &p.rounds[k]
		nr, nw := share(nOpen, k), share(nOpenW, k)
		rd.open = schedule(p.chain, reads[:nr], w.readRate, openWO[:nw], w.writeRate)
		reads, openWO = reads[nr:], openWO[nw:]
		for j := range share(nClosedW, k) {
			if withClosed {
				rd.closedWrites = append(rd.closedWrites,
					p.chain.write(p.wo[p.nextW], time.Duration(float64(j)/w.writeRate*float64(time.Second))))
			}
			p.nextW++
		}
		for range share(nBurstW, k) {
			rd.writes = append(rd.writes, p.chain.write(p.wo[p.nextW], 0))
			p.nextW++
		}
	}
	return p
}

// phase is one batch of ops for the report and the failure count.
type phase struct {
	name               string
	attempted, correct int
}

type untracedResult struct {
	e2e         []metric
	layer       []metric // the per-layer figures an untraced run measures
	phases      []phase
	failures    []string
	attempted   int
	failed      int
	correct     bool
	repeatShare float64
	readP50     float64
	snapDir     string
	// tooFew lists the percentiles with fewer than ten samples beyond
	// them; any entry fails the run.
	tooFew []string
}

// httpExec sends ops to the daemon, one client (connection) per worker,
// and checks each answer it can check on arrival.
type httpExec struct {
	r       *runCtx
	clients []*client
}

func (h *httpExec) run(w int, o *op) (bool, []byte, int, string) {
	c := h.clients[w]
	if o.kind == opWrite {
		cat := h.r.cats[o.cat]
		status, body, err := c.do(http.MethodPatch, "/v1/catalogs/"+cat.name, cat.flip[o.ver])
		if err != nil {
			return false, nil, 0, err.Error()
		}
		if status != http.StatusOK {
			return false, nil, len(body), fmt.Sprintf("PATCH %s: status %d: %.200s", cat.name, status, body)
		}
		var info service.CatalogInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return false, nil, len(body), err.Error()
		}
		if info.Generation != o.gen {
			return false, nil, len(body), fmt.Sprintf("PATCH %s: generation %d, want %d", cat.name, info.Generation, o.gen)
		}
		return true, nil, len(body), ""
	}
	s := h.r.pool[o.src]
	path, req := "/v1/match-any", s.anyBody
	if !h.r.w.churn {
		path, req = "/v1/catalogs/"+h.r.cats[0].name+"/match", s.matchBody
	}
	status, body, err := c.do(http.MethodPost, path, req)
	if err != nil {
		return false, nil, 0, err.Error()
	}
	if status != http.StatusOK {
		return false, nil, len(body), fmt.Sprintf("POST %s: status %d: %.200s", path, status, body)
	}
	if h.r.refs == nil {
		return true, body, len(body), "" // checked after the run
	}
	if !bytes.Equal(maskElapsed(body), h.r.refs[o.src]) {
		return false, nil, len(body), fmt.Sprintf("source %d: response differs from the reference", o.src)
	}
	return true, nil, len(body), ""
}

// liveHeap forces collections and returns the live heap in bytes. The
// second collection frees what sync.Pool victim caches still held after
// the first, which can pin a stopped server's artifacts.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cpuSeconds reads the process's GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// setUp sets up setupReps times and keeps the last set-up serving. It
// returns that set-up, the median set-up time, and the live heap the
// last set-up added, in MB.
func (r *runCtx) setUp() (*setupResult, float64, float64, error) {
	var secs []float64
	for rep := 0; ; rep++ {
		snap := ""
		if r.w.churn {
			snap = filepath.Join(r.dir, fmt.Sprintf("snap%d", rep))
		}
		final := rep == setupReps-1
		var h0 int64
		if final {
			h0 = liveHeap()
		}
		s, err := setup(r.cats, snap)
		if err != nil {
			return nil, 0, 0, err
		}
		s.snapDir = snap
		secs = append(secs, s.seconds)
		if final {
			return s, median(secs), float64(liveHeap()-h0) / 1e6, nil
		}
		s.d.stop()
		if err := os.RemoveAll(snap); err != nil {
			return nil, 0, 0, err
		}
	}
}

// untraced sets up, warms up, computes the reference answers and runs
// the rounds over HTTP, each ending in a warm restart.
func (r *runCtx) untraced() (*untracedResult, error) {
	w := r.w
	res := &untracedResult{}
	su, setupS, heapMB, err := r.setUp()
	if err != nil {
		return nil, err
	}
	res.snapDir = su.snapDir
	d := su.d
	defer d.stop()
	srv := d.srv
	fusedBytes := srv.Fleet().FusedStats().Bytes

	var vrefs *versionRefs
	if w.churn {
		if vrefs, err = newVersionRefs(srv, r.cats, r.pool); err != nil {
			return nil, err
		}
	} else if r.refs, err = references(srv, r.cats[0], r.pool, r.workers); err != nil {
		return nil, err
	}

	ex := &httpExec{r: r}
	for i := 0; i < r.workers; i++ {
		ex.clients = append(ex.clients, newClient(d.base))
	}
	defer func() {
		for _, c := range ex.clients {
			c.close()
		}
	}()
	// Warm-up: one untimed pass over the pool.
	var warmOps []*op
	for i := range r.pool {
		warmOps = append(warmOps, &op{kind: opRead, src: i})
	}
	warm := openLoop(warmOps, r.workers, ex)
	pl := r.plan(true)

	readRoute := "POST /v1/match-any"
	if !w.churn {
		readRoute = "POST /v1/catalogs/{name}/match"
	}
	const patchRoute = "PATCH /v1/catalogs/{name}"
	// Warm restarts read the workload's snapshots: the live directory on
	// churn, otherwise the served handles written out before the traffic.
	restartDir := res.snapDir
	if restartDir == "" {
		restartDir = filepath.Join(r.dir, "restart")
		if err := writeSnapshots(srv, r.cats, restartDir); err != nil {
			return nil, err
		}
		res.snapDir = restartDir
	}
	// handlerDelta adds to acc what each route's handler-time histogram
	// gained while f ran.
	handlerDelta := func(acc map[string][2]float64, f func()) error {
		a, err := handlerSeconds(srv)
		if err != nil {
			return err
		}
		f()
		b, err := handlerSeconds(srv)
		if err != nil {
			return err
		}
		for route, v := range b {
			cur := acc[route]
			cur[0] += v[0] - a[route][0]
			cur[1] += v[1] - a[route][1]
			acc[route] = cur
		}
		return nil
	}
	var (
		open, closedR, closedW, phaseW []outcome
		elapsed                        time.Duration
		restarts, hit                  []float64
		probes, skips, bypasses        int64
		gcCPU, totalCPU                float64
		closedOff                      int
	)
	hOpen, hBurst := map[string][2]float64{}, map[string][2]float64{}
	// Every phase starts from a finished collection, so where the
	// collector's cycles fall within a phase does not change from run
	// to run.
	for k, rd := range pl.rounds {
		runtime.GC()
		f0, by0 := srv.Fleet().FusedStats(), srv.Fleet().Bypasses()
		if err := handlerDelta(hOpen, func() {
			open = append(open, openLoop(rd.open, r.workers, ex)...)
		}); err != nil {
			return nil, err
		}
		f1 := srv.Fleet().FusedStats()
		probes += f1.Probes - f0.Probes
		skips += f1.BoundSkips - f0.BoundSkips

		runtime.GC()
		gc0, cpu0 := cpuSeconds()
		cr, cw, el := closedLoop(pl.closedD, r.workers, pl.closedReads[closedOff:], rd.closedWrites, ex)
		gc1, cpu1 := cpuSeconds()
		closedOff += len(cr)
		closedR, closedW, elapsed = append(closedR, cr...), append(closedW, cw...), elapsed+el
		gcCPU, totalCPU = gcCPU+gc1-gc0, totalCPU+cpu1-cpu0
		bypasses += srv.Fleet().Bypasses() - by0

		// The index hit rate is read before the last write burst swaps in
		// handles whose counters start afresh; on churn each catalog's
		// rate covers its latest generation.
		if k == rounds-1 {
			for _, c := range r.cats {
				if t, ok := srv.Registry().Get(c.name); ok {
					hit = append(hit, t.LiveStats().IndexHitRate)
				}
			}
		}
		if len(rd.writes) > 0 {
			runtime.GC()
			if err := handlerDelta(hBurst, func() {
				phaseW = append(phaseW, backToBack(rd.writes, ex)...)
			}); err != nil {
				return nil, err
			}
		}

		for range restartReps {
			runtime.GC()
			s, err := restart(restartDir, len(r.cats))
			if err != nil {
				return nil, err
			}
			restarts = append(restarts, s)
		}
	}

	// Answers checked after the run (churn), then F-measure.
	perSource := map[int][]catalogResult{}
	for _, batch := range [][]outcome{warm, open, closedR} {
		for i := range batch {
			o := &batch[i]
			if o.op.kind != opRead || !o.ok {
				continue
			}
			if vrefs != nil {
				if err := vrefs.checkAnyBody(o.op.src, o.body); err != nil {
					o.ok, o.err = false, fmt.Sprintf("source %d: %v", o.op.src, err)
					continue
				}
				if _, seen := perSource[o.op.src]; !seen {
					crs, err := decodeResults(true, r.cats, o.body)
					if err != nil {
						return nil, err
					}
					perSource[o.op.src] = crs
				}
			}
			o.body = nil
		}
	}
	if vrefs == nil {
		for i, b := range r.refs {
			crs, err := decodeResults(false, r.cats, b)
			if err != nil {
				return nil, err
			}
			perSource[i] = crs
		}
	}
	for _, p := range []struct {
		name string
		outs []outcome
	}{{"warm-up", warm}, {"open-loop", open}, {"closed-loop", append(closedR, closedW...)}, {"write-phase", phaseW}} {
		if len(p.outs) == 0 {
			continue
		}
		ph := phase{name: p.name, attempted: len(p.outs)}
		for _, o := range p.outs {
			if o.ok {
				ph.correct++
				continue
			}
			res.failed++
			if len(res.failures) < 10 {
				res.failures = append(res.failures, o.err)
			}
		}
		res.attempted += ph.attempted
		res.phases = append(res.phases, ph)
	}
	res.correct = res.failed == 0

	// Latency samples: a failed op counts as missing every limit. Write
	// latency comes from the open loop when writes run beside reads,
	// else from the write phase.
	var readLat, writeLat, late, sizes []float64
	writeOuts := open
	if len(phaseW) > 0 {
		writeOuts = phaseW
	}
	for _, o := range open {
		late = append(late, o.lateMS())
		if o.op.kind == opRead {
			readLat = append(readLat, okLatency(o))
			sizes = append(sizes, float64(o.size)/1e3)
		}
	}
	for _, o := range writeOuts {
		if o.op.kind == opWrite {
			writeLat = append(writeLat, okLatency(o))
		}
	}
	pct := func(name string, xs []float64, q float64) float64 {
		v, err := percentile(name, xs, q)
		if err != nil {
			res.tooFew = append(res.tooFew, err.Error())
		}
		return v
	}
	readP50 := pct("read_p50_ms", readLat, 0.50)
	readP95 := pct("read_p95_ms", readLat, 0.95)
	writeP50 := pct("write_p50_ms", writeLat, 0.50)
	writeP90 := pct("write_p90_ms", writeLat, 0.90)
	res.readP50 = readP50
	var capOK int
	for _, o := range closedR {
		if o.ok {
			capOK++
		}
	}
	seen := map[int]bool{}
	for _, o := range warm {
		seen[o.op.src] = true
	}
	var timed, repeats int
	for _, batch := range [][]outcome{open, closedR} {
		for _, o := range batch {
			if o.op.kind == opRead {
				timed++
				if seen[o.op.src] {
					repeats++
				}
				seen[o.op.src] = true
			}
		}
	}
	res.repeatShare = float64(repeats) / float64(timed)

	res.e2e = []metric{
		{"setup_s", setupS, "s", setupReps},
		{"heap_mb", heapMB, "MB", 1},
		{"restart_s", median(restarts), "s", len(restarts)},
		{"read_p50_ms", readP50, "ms", len(readLat)},
		{"read_p95_ms", readP95, "ms", len(readLat)},
		{"capacity_rps", float64(capOK) / elapsed.Seconds(), "req/s", len(closedR)},
		{"write_p50_ms", writeP50, "ms", len(writeLat)},
		{"write_p90_ms", writeP90, "ms", len(writeLat)},
		{"ok_frac", 1 - float64(res.failed)/float64(res.attempted), "ratio", res.attempted},
		{"f_measure", fMeasure(r.pool, perSource), "%", len(perSource)},
	}

	// Untraced per-layer figures.
	routeMean := func(acc map[string][2]float64, route string) (float64, int) {
		n := acc[route][1]
		if n <= 0 {
			return 0, 0
		}
		return acc[route][0] / n * 1e3, int(n)
	}
	hRead, nRead := routeMean(hOpen, readRoute)
	hPatch, nPatch := routeMean(hOpen, patchRoute)
	if len(phaseW) > 0 {
		hPatch, nPatch = routeMean(hBurst, patchRoute)
	}
	openReads, anyReads := 0, 0
	if w.churn {
		openReads = len(readLat)
		anyReads = openReads + len(closedR)
	}
	perAny := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	fEnd := srv.Fleet().FusedStats()
	var prepTotal, prepBig float64
	for _, c := range r.cats {
		ns := float64(su.preparedNS[c.name]) / 1e6
		prepTotal += ns
		if c.big {
			prepBig = ns
		}
	}
	lateP95, _ := quantile(late, 0.95)
	gcFrac := 0.0
	if totalCPU > 0 {
		gcFrac = gcCPU / totalCPU
	}
	res.layer = []metric{
		{"service.response_kb", mean(sizes), "kB", len(sizes)},
		{"service.handler_ms", hRead, "ms", nRead},
		{"service.patch_handler_ms", hPatch, "ms", nPatch},
		{"repository.bypass_frac", perAny(float64(bypasses), anyReads), "ratio", anyReads},
		{"tokenize.probes_per_req", perAny(float64(probes), openReads), "count", openReads},
		{"tokenize.bound_skips_per_req", perAny(float64(skips), openReads), "count", openReads},
		{"tokenize.fused_mb", float64(fusedBytes) / 1e6, "MB", 1},
		{"tokenize.tombstones", float64(fEnd.Tombstones), "count", 1},
		{"tokenize.dead_slots", float64(fEnd.Slots - fEnd.Live), "count", 1},
		{"match.index_hit_rate", mean(hit), "ratio", len(hit)},
		{"ctxmatch.prepare_ms", prepBig, "ms", 1},
		{"ctxmatch.prepare_total_ms", prepTotal, "ms", len(r.cats)},
		{"runtime.gc_cpu_frac", gcFrac, "ratio", 1},
		{"client.late_p95_ms", lateP95, "ms", len(late)},
	}
	if r.trace {
		loadMS, mb, n, err := loadSnapshots(res.snapDir)
		if err != nil {
			return nil, err
		}
		res.layer = append(res.layer,
			metric{"snapshot.load_ms", loadMS, "ms", n},
			metric{"snapshot.mb", mb, "MB", n})
	}
	return res, nil
}

// okLatency is an open-loop op's latency, +Inf when it failed.
func okLatency(o outcome) float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return o.latencyMS()
}

// loadSnapshots restores every snapshot in dir with ctxmatch.LoadTarget
// from memory and returns the summed load time (ms), the total size
// (MB) and the file count.
func loadSnapshots(dir string) (float64, float64, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return 0, 0, 0, err
	}
	var ms, mb float64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		if _, err := ctxmatch.LoadTarget(bytes.NewReader(b)); err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", p, err)
		}
		ms += float64(time.Since(start)) / 1e6
		mb += float64(len(b)) / 1e6
	}
	return ms, mb, len(paths), nil
}

// traced replays the open-loop segments and write bursts of every round
// in-process on a server instance of its own, then makes the sequential pass, writes the spans and
// prints the self-time breakdown. It returns every per-layer metric.
func (r *runCtx) traced(u *untracedResult, spansPath string) ([]metric, error) {
	snap := ""
	if r.w.churn {
		snap = filepath.Join(r.dir, "traced")
	}
	srv, err := newServer(snap)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	for _, c := range r.cats {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPut, "/v1/catalogs/"+c.name, bytes.NewReader(c.put))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			return nil, fmt.Errorf("traced PUT %s: status %d", c.name, rec.Code)
		}
	}
	pl := r.plan(false)
	tex := newTracedExec(r, srv, snap, r.workers)
	var outs []outcome
	for _, rd := range pl.rounds {
		outs = append(outs, openLoop(rd.open, r.workers, tex)...)
		outs = append(outs, backToBack(rd.writes, tex)...)
	}
	for _, o := range outs {
		if !o.ok {
			return nil, fmt.Errorf("traced op failed: %s", o.err)
		}
	}
	sr, err := tex.sequential(pl.chain, pl.wo[pl.nextW:], seqWrites)
	if err != nil {
		return nil, err
	}
	spans := tex.allSpans()
	var anyOps []anyOp
	for _, a := range tex.anyOps {
		anyOps = append(anyOps, a...)
	}
	if err := writeSpans(spansPath, r.w.name, r.seed, spans, tex.counters); err != nil {
		return nil, err
	}
	byLayer, retrieve, bad := layerBreakdown(spans, anyOps, sr)
	opP50, nOps := spanP50(spans, "op.read", "op.read")
	printBreakdown(r.w.name, spansPath, byLayer, opP50, u.readP50, bad)
	if bad > 0 {
		return nil, fmt.Errorf("%d traced ops' layer self times do not sum to their duration", bad)
	}

	sp := func(name, layer, root string) metric {
		v, n := spanP50(spans, layer, root)
		return metric{name, v, "ms", n}
	}
	var survivors, pruned []float64
	for _, a := range anyOps {
		survivors = append(survivors, float64(len(a.survivors)))
		pruned = append(pruned, a.pruned)
	}
	// A match-any's survivor matches run inside Fleet.MatchAny, out of
	// the benchmark's sight; their spans come from the sequential pass.
	matchMS := sp("ctxmatch.match_ms", "ctxmatch.match", "op.read")
	if r.w.churn {
		matchMS = sp("ctxmatch.match_ms", "ctxmatch.match", "seq.read")
	}
	var wTrain, wPre, wUpd []float64
	for _, wc := range sr.writes {
		wTrain = append(wTrain, wc.trainings)
		wPre = append(wPre, wc.precomputes)
		wUpd = append(wUpd, wc.updates)
	}
	med := func(name string, xs []float64, unit string) metric {
		if len(xs) == 0 {
			return metric{name, 0, unit, 0}
		}
		v, _ := quantile(xs, 0.5)
		return metric{name, v, unit, len(xs)}
	}
	avg := func(name string, xs []float64, unit string) metric {
		if len(xs) == 0 {
			return metric{name, 0, unit, 0}
		}
		return metric{name, mean(xs), unit, len(xs)}
	}
	out := []metric{
		sp("service.decode_ms", "service.decode", "op.read"),
		sp("service.delta_decode_ms", "service.decode", "op.write"),
		sp("service.encode_ms", "service.encode", "op.read"),
		sp("service.install_ms", "service.install", "op.write"),
		sp("repository.match_any_ms", "repository.match_any", "op.read"),
		med("repository.retrieve_ms", retrieve, "ms"),
		avg("repository.survivors_per_req", survivors, "count"),
		avg("repository.pruned_frac", pruned, "ratio"),
		med("repository.match_any_allocs", sr.matchAnyAllocs, "count"),
		matchMS,
		med("ctxmatch.match_allocs", sr.matchAllocs, "count"),
		sp("ctxmatch.update_ms", "ctxmatch.update", "op.write"),
		avg("core.trainings_per_read", sr.trainingsRead, "count"),
		avg("core.trainings_per_write", wTrain, "count"),
		avg("match.precomputes_per_write", wPre, "count"),
		avg("match.updates_per_write", wUpd, "count"),
		sp("snapshot.encode_ms", "snapshot.encode", "op.write"),
		{"trace.read_op_ms", opP50, "ms", nOps},
	}
	out = append(out, u.layer...)
	slices.SortFunc(out, func(a, b metric) int { return strings.Compare(a.name, b.name) })
	return out, nil
}

// printBreakdown prints the traced run's mean self time per op by layer,
// names the layer with the largest self time, and sets the traced read
// p50 beside the untraced one.
func printBreakdown(workload, path string, byLayer map[string]map[string]float64, tracedP50, untracedP50 float64, bad int) {
	fmt.Printf("traced run: spans in %s\n", path)
	for _, kind := range sortedKeys(byLayer) {
		m := byLayer[kind]
		var total float64
		for _, v := range m {
			total += v
		}
		top, topV := "", -1.0
		label := "scheduled"
		if strings.HasPrefix(kind, "seq.") {
			label = "sequential pass"
		}
		fmt.Printf("  %s %s (%s): mean %.3f ms per op\n", workload, kind, label, total)
		for _, l := range sortedKeys(m) {
			fmt.Printf("    %-12s %9.3f ms %5.1f%%\n", l, m[l], 100*m[l]/total)
			if m[l] > topV {
				top, topV = l, m[l]
			}
		}
		fmt.Printf("    largest self time: %s\n", top)
	}
	fmt.Printf("  traced read p50 %.3f ms vs untraced read_p50_ms %.3f ms: gap %.3f ms (HTTP transport, connection wait and tracing)\n",
		tracedP50, untracedP50, untracedP50-tracedP50)
	if bad > 0 {
		fmt.Printf("  %d ops' layer self times do not sum to their duration\n", bad)
	}
}
