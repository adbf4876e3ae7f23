// Command perfbench is the repository benchmark: it serves the ctxmatchd
// handler stack on a loopback listener, installs catalogs through
// PUT /v1/catalogs/{name}, drives one workload from this process over at
// most nproc connections, checks every answer, and prints every metric by
// name — the last line of standard output is one JSON object.
//
//	go -C perfbench build -o ../.bench_build/perfbench . &&
//	    .bench_build/perfbench --workload churn --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it also
// replays the open-loop schedule in-process on a server instance of its
// own, timing each call into a layer's public functions as a span, and
// reports the per-layer metrics (spans are written to
// .bench_build/perfbench/trace-<workload>-seed<n>.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// workload is one traffic mix. The open-loop read rates are frozen at
// about a quarter of the capacity the seed commit measured on a 2-core
// machine, so the open-loop phases run well below saturation there:
// the busier the connections, the more a slower moment of the host
// stretches the queues and the further latency moves with it.
type workload struct {
	name string
	// churn serves the 32-catalog fleet with a snapshot directory (every
	// install is fsync'd to disk), reads through POST /v1/match-any, and
	// runs writes at writeRate beside the open-loop reads and through the
	// closed loop. Otherwise the enterprise catalog is served alone, read
	// through POST /v1/catalogs/{name}/match, and writePhaseOps writes run
	// back to back in equal bursts, one after each round's reads.
	churn bool
	// readRate and writeRate are the open-loop rates per second.
	readRate, writeRate float64
	// open and closed are the shares of --seconds given to the open-loop
	// segments and the closed-loop capacity segments, over all rounds.
	open, closed float64
}

var workloads = []*workload{
	{name: "catalog-match", readRate: 10, open: 0.6, closed: 0.16},
	{name: "churn", churn: true, readRate: 5.6, writeRate: 2.8, open: 0.82, closed: 0.15},
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func main() {
	name := flag.String("workload", "", "workload: catalog-match or churn")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := flag.Float64("seconds", 45, "measured seconds per run, split between the phases")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and reports per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (catalog-match or churn), --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w *workload, seed int64, secs float64, trace bool) error {
	out := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &runCtx{w: w, seed: seed, secs: secs, trace: trace, dir: dir, workers: runtime.NumCPU()}
	if err := r.generate(); err != nil {
		return err
	}
	res, err := r.untraced()
	if err != nil {
		return err
	}
	metrics := res.e2e
	if trace {
		lm, err := r.traced(res, filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed)))
		if err != nil {
			return err
		}
		metrics = lm
	}
	printReport(r, res, metrics)
	if len(res.tooFew) > 0 {
		return fmt.Errorf("too few samples: %s", strings.Join(res.tooFew, "; "))
	}
	return emit(res.attempted, res.failed, res.correct, metrics)
}

// printReport prints the run's environment, its phases and every metric
// with its unit and sample count.
func printReport(r *runCtx, res *untracedResult, ms []metric) {
	rev := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+modified"
			}
		}
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", r.w.name, r.seed, r.secs, r.trace)
	fmt.Printf("nproc=%d GOMAXPROCS=%d go=%s commit=%s connections=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, r.workers)
	fmt.Printf("pool: %d sources (Rows 60/120/240 x gamma 4/8 x extra 0/4 x distractors on/off); %d catalogs; repeat share %.3f\n",
		poolSize, len(r.cats), res.repeatShare)
	for _, p := range res.phases {
		fmt.Printf("phase %-12s attempted %5d completed-correct %5d\n", p.name, p.attempted, p.correct)
	}
	if len(res.failures) > 0 {
		fmt.Printf("failures (first %d):\n  %s\n", len(res.failures), strings.Join(res.failures, "\n  "))
	}
	fmt.Printf("%-32s %14s %-6s %s\n", "metric", "value", "unit", "n")
	for _, m := range ms {
		fmt.Printf("%-32s %14.4f %-6s %d\n", m.name, m.value, m.unit, m.n)
	}
}

// emit prints the result object as the last line of standard output.
func emit(attempted, failed int, correct bool, ms []metric) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]val{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		out[m.name] = val{v, m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
