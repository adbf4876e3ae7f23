package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"ctxmatch"
	"ctxmatch/internal/core"
	"ctxmatch/internal/match"
	"ctxmatch/internal/repository"
	"ctxmatch/internal/service"
)

// span is one timed call: a layer boundary crossed by one op. Times are
// nanoseconds since the traced run started; Parent is 0 for an op's root
// span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// (work fanned out in parallel) are counted once, and child time outside
// the parent's interval is not subtracted.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		var covered, end int64
		end = s.Start
		for _, c := range iv {
			lo := max(c[0], end)
			if c[1] > lo {
				covered += c[1] - lo
				end = c[1]
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// tracer hands out span ids and the run's clock.
type tracer struct {
	t0   time.Time
	next atomic.Int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// opTrace records the spans of one op; it is used by one goroutine.
type opTrace struct {
	tr    *tracer
	op    int64
	spans []span
}

// begin opens a span under parent (a span index, or -1 for the root)
// and returns its index.
func (o *opTrace) begin(name, layer string, parent int) int {
	var pid int64
	if parent >= 0 {
		pid = o.spans[parent].ID
	}
	o.spans = append(o.spans, span{ID: o.tr.next.Add(1), Parent: pid, Op: o.op, Name: name, Layer: layer, Start: o.tr.now()})
	return len(o.spans) - 1
}

func (o *opTrace) end(i int) { o.spans[i].End = o.tr.now() }

// anyOp is what the retrieval self time of one traced match-any needs.
type anyOp struct {
	op        int64
	src       int
	ns        int64
	survivors []string
	pruned    float64
}

// tracedExec runs ops in-process on a server instance of its own,
// calling the layers' public functions in the handler's order: decode →
// Target.Match or Fleet.MatchAny → encode for reads; decode →
// Target.Update → Registry.Install → Target.WriteSnapshot (+ the
// durable file write) for writes. Every call gets a span.
type tracedExec struct {
	r        *runCtx
	srv      *service.Server
	snapDir  string
	tr       *tracer
	ops      atomic.Int64
	spans    [][]span // per worker
	anyOps   [][]anyOp
	counters []counter // sequential pass only
}

func newTracedExec(r *runCtx, srv *service.Server, snapDir string, workers int) *tracedExec {
	return &tracedExec{r: r, srv: srv, snapDir: snapDir, tr: &tracer{t0: time.Now()},
		spans: make([][]span, workers), anyOps: make([][]anyOp, workers)}
}

func (t *tracedExec) run(w int, o *op) (bool, []byte, int, string) {
	ot := &opTrace{tr: t.tr, op: t.ops.Add(1)}
	// The daemon bounds every request with its default 60 s timeout;
	// match-any splits that deadline into stage budgets.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ok bool
	var body []byte
	var err error
	if o.kind == opWrite {
		ok, err = t.write(ctx, ot, o, "op.write")
	} else {
		ok, body, err = t.read(ctx, ot, w, o)
	}
	t.spans[w] = append(t.spans[w], ot.spans...)
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return ok && err == nil, nil, len(body), msg
}

func (t *tracedExec) read(ctx context.Context, ot *opTrace, w int, o *op) (bool, []byte, error) {
	s := t.r.pool[o.src]
	root := ot.begin("op.read", "bench", -1)
	defer ot.end(root)
	var v any
	if t.r.w.churn {
		i := ot.begin("service.decode", "service", root)
		var req service.MatchAnyRequest
		err := json.Unmarshal(s.anyBody, &req)
		var src *ctxmatch.Schema
		if err == nil {
			src, err = req.Source.Build("source")
		}
		ot.end(i)
		if err != nil {
			return false, nil, err
		}
		i = ot.begin("repository.match_any", "repository", root)
		rep, err := t.srv.Fleet().MatchAny(ctx, src, repository.Query{K: req.K, MinScore: req.MinScore})
		ot.end(i)
		if err != nil {
			return false, nil, err
		}
		a := anyOp{op: ot.op, src: o.src, ns: ot.spans[i].End - ot.spans[i].Start}
		for _, cm := range rep.Ranked {
			a.survivors = append(a.survivors, cm.Name)
		}
		if rep.Considered > 0 {
			a.pruned = float64(rep.Pruned) / float64(rep.Considered)
		}
		t.anyOps[w] = append(t.anyOps[w], a)
		v = matchAnyResponse(rep)
	} else {
		i := ot.begin("service.decode", "service", root)
		var req struct {
			Source service.SchemaDoc `json:"source"`
		}
		err := json.Unmarshal(s.matchBody, &req)
		var src *ctxmatch.Schema
		if err == nil {
			src, err = req.Source.Build("source")
		}
		ot.end(i)
		if err != nil {
			return false, nil, err
		}
		target, found := t.srv.Registry().Get(t.r.cats[0].name)
		if !found {
			return false, nil, fmt.Errorf("catalog %s not installed", t.r.cats[0].name)
		}
		i = ot.begin("ctxmatch.match", "ctxmatch", root)
		res, err := target.Match(ctx, src)
		ot.end(i)
		if err != nil {
			return false, nil, err
		}
		v = res
	}
	i := ot.begin("service.encode", "service", root)
	body, err := encodeJSON(v)
	ot.end(i)
	if err != nil {
		return false, nil, err
	}
	if ref := t.r.refs; ref != nil {
		return bytes.Equal(maskElapsed(body), ref[o.src]), body, nil
	}
	return true, body, nil
}

func (t *tracedExec) write(ctx context.Context, ot *opTrace, o *op, rootName string) (bool, error) {
	c := t.r.cats[o.cat]
	root := ot.begin(rootName, "bench", -1)
	defer ot.end(root)
	i := ot.begin("service.decode", "service", root)
	var doc service.CatalogDeltaDoc
	err := json.Unmarshal(c.flip[o.ver], &doc)
	var delta ctxmatch.CatalogDelta
	if err == nil {
		delta, err = doc.Build()
	}
	ot.end(i)
	if err != nil {
		return false, err
	}
	reg := t.srv.Registry()
	cur, found := reg.Get(c.name)
	if !found {
		return false, fmt.Errorf("catalog %s not installed", c.name)
	}
	i = ot.begin("ctxmatch.update", "ctxmatch", root)
	next, err := cur.Update(ctx, delta)
	ot.end(i)
	if err != nil {
		return false, err
	}
	i = ot.begin("service.install", "service", root)
	info, _, _ := reg.Install(c.name, next)
	ot.end(i)
	if t.snapDir != "" {
		i = ot.begin("snapshot.encode", "snapshot", root)
		var buf bytes.Buffer
		_, err := next.WriteSnapshot(&buf)
		ot.end(i)
		if err != nil {
			return false, err
		}
		i = ot.begin("service.persist", "service", root)
		err = persistFile(t.snapDir, c.name, buf.Bytes())
		ot.end(i)
		if err != nil {
			return false, err
		}
		reg.MarkClean(c.name, next)
	}
	return info.Generation == o.gen, nil
}

// allSpans returns every recorded span.
func (t *tracedExec) allSpans() []span {
	var out []span
	for _, s := range t.spans {
		out = append(out, s...)
	}
	return out
}

// mallocs reads the process-wide heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// seqResult is what the sequential pass after the traced schedule
// measures one op at a time, where process-wide counters attribute
// exactly.
type seqResult struct {
	matchNS        map[srcCat]int64 // Target.Match ns per (source, catalog)
	matchAllocs    []float64        // per Target.Match
	matchAnyAllocs []float64        // per Fleet.MatchAny
	trainingsRead  []float64        // per read
	writes         []writeCounts
}

// srcCat names one pool source matched against one catalog.
type srcCat struct {
	src  int
	name string
}

type writeCounts struct{ trainings, precomputes, updates float64 }

// counter is how far a process-wide work counter moved over one op of
// the sequential pass: the layers reached only inside others (core,
// match, tokenize) are measured this way.
type counter struct {
	Op    int64   `json:"op"`
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// sequential runs every pool source once more, one at a time, on the
// traced instance — recording allocations and classifier trainings per
// read, and each match-any survivor's Target.Match time — then nWrites
// writes continuing the chain, recording the counters each write moves.
// Its ops are traced under "seq.read" and "seq.write" roots.
func (t *tracedExec) sequential(chain *writeChain, wo []int, nWrites int) (*seqResult, error) {
	ctx := context.Background()
	sr := &seqResult{matchNS: map[srcCat]int64{}}
	fleet := t.srv.Fleet()
	count := func(op int64, layer, name string, v float64) {
		t.counters = append(t.counters, counter{op, layer, name, v})
	}
	for src := range t.r.pool {
		ot := &opTrace{tr: t.tr, op: t.ops.Add(1)}
		root := ot.begin("seq.read", "bench", -1)
		tr0, f0 := core.TargetClassifierTrainings(), fleet.FusedStats()
		timeMatch := func(name string, target *ctxmatch.Target) error {
			a0 := mallocs()
			i := ot.begin("ctxmatch.match", "ctxmatch", root)
			_, err := target.Match(ctx, t.r.pool[src].schema)
			ot.end(i)
			sr.matchAllocs = append(sr.matchAllocs, float64(mallocs()-a0))
			sr.matchNS[srcCat{src, name}] = ot.spans[i].End - ot.spans[i].Start
			return err
		}
		var survivors []string
		if t.r.w.churn {
			a0 := mallocs()
			i := ot.begin("repository.match_any", "repository", root)
			rep, err := fleet.MatchAny(ctx, t.r.pool[src].schema, repository.Query{})
			ot.end(i)
			sr.matchAnyAllocs = append(sr.matchAnyAllocs, float64(mallocs()-a0))
			if err != nil {
				return nil, err
			}
			for _, cm := range rep.Ranked {
				survivors = append(survivors, cm.Name)
			}
		} else {
			survivors = []string{t.r.cats[0].name}
		}
		trainings := float64(core.TargetClassifierTrainings() - tr0)
		f1 := fleet.FusedStats()
		byName := map[string]*ctxmatch.Target{}
		for _, e := range fleet.Entries() {
			byName[e.Name] = e.Target
		}
		for _, name := range survivors {
			if err := timeMatch(name, byName[name]); err != nil {
				return nil, err
			}
		}
		ot.end(root)
		sr.trainingsRead = append(sr.trainingsRead, trainings)
		count(ot.op, "core", "core.trainings", trainings)
		count(ot.op, "tokenize", "tokenize.probes", float64(f1.Probes-f0.Probes))
		count(ot.op, "tokenize", "tokenize.bound_skips", float64(f1.BoundSkips-f0.BoundSkips))
		t.spans[0] = append(t.spans[0], ot.spans...)
	}
	for k := 0; k < nWrites; k++ {
		o := chain.write(wo[k%len(wo)], 0)
		tr0, pc0, up0 := core.TargetClassifierTrainings(), match.TargetPrecomputes(), match.TargetUpdates()
		ot := &opTrace{tr: t.tr, op: t.ops.Add(1)}
		<-o.prev
		ok, err := t.write(ctx, ot, o, "seq.write")
		close(o.done)
		if err != nil || !ok {
			return nil, fmt.Errorf("sequential write to %s: ok=%v err=%v", t.r.cats[o.cat].name, ok, err)
		}
		wc := writeCounts{
			trainings:   float64(core.TargetClassifierTrainings() - tr0),
			precomputes: float64(match.TargetPrecomputes() - pc0),
			updates:     float64(match.TargetUpdates() - up0),
		}
		sr.writes = append(sr.writes, wc)
		count(ot.op, "core", "core.trainings", wc.trainings)
		count(ot.op, "match", "match.precomputes", wc.precomputes)
		count(ot.op, "match", "match.updates", wc.updates)
		t.spans[0] = append(t.spans[0], ot.spans...)
	}
	return sr, nil
}

// layerBreakdown attributes each traced op's duration to layers by self
// time. A match-any's Fleet.MatchAny span has no children the benchmark
// can observe, so its survivors' Target.Match times from the sequential
// pass are moved from repository to ctxmatch (a derived split; the
// remainder is retrieval). It returns per-op-kind mean self time by
// layer (ms), the per-request derived retrieval times (ms), and how many
// ops' layer times failed to sum to their duration.
func layerBreakdown(spans []span, anyOps []anyOp, sr *seqResult) (map[string]map[string]float64, []float64, int) {
	self := selfTimes(spans)
	type opAcc struct {
		kind   string
		dur    int64
		layers map[string]int64
	}
	ops := map[int64]*opAcc{}
	for _, s := range spans {
		a := ops[s.Op]
		if a == nil {
			a = &opAcc{layers: map[string]int64{}}
			ops[s.Op] = a
		}
		if s.Parent == 0 {
			a.kind, a.dur = s.Name, s.End-s.Start
		}
		a.layers[s.Layer] += self[s.ID]
	}
	var retrieve []float64
	for _, ao := range anyOps {
		var matchNS int64
		for _, name := range ao.survivors {
			matchNS += sr.matchNS[srcCat{ao.src, name}]
		}
		matchNS = min(matchNS, ao.ns)
		retrieve = append(retrieve, float64(ao.ns-matchNS)/1e6)
		if a := ops[ao.op]; a != nil {
			a.layers["repository"] -= matchNS
			a.layers["ctxmatch"] += matchNS
		}
	}
	sums := map[string]map[string]float64{}
	counts := map[string]int{}
	bad := 0
	for _, a := range ops {
		var total int64
		for _, ns := range a.layers {
			total += ns
		}
		if d := total - a.dur; d > 1000 || d < -1000 {
			bad++
		}
		if sums[a.kind] == nil {
			sums[a.kind] = map[string]float64{}
		}
		for l, ns := range a.layers {
			sums[a.kind][l] += float64(ns) / 1e6
		}
		counts[a.kind]++
	}
	for kind, m := range sums {
		for l := range m {
			m[l] /= float64(counts[kind])
		}
	}
	return sums, retrieve, bad
}

// spanP50 is the median duration (ms) of the spans named name under
// roots named root ("" for any).
func spanP50(spans []span, name, root string) (float64, int) {
	rootOf := map[int64]string{}
	for _, s := range spans {
		if s.Parent == 0 {
			rootOf[s.Op] = s.Name
		}
	}
	var xs []float64
	for _, s := range spans {
		if s.Name == name && (root == "" || rootOf[s.Op] == root) {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	v, _ := quantile(xs, 0.5)
	return v, len(xs)
}

// writeSpans writes the traced run's spans and the sequential pass's
// counters as one JSON file.
func writeSpans(path, workload string, seed int64, spans []span, counters []counter) error {
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans, "counters": counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
