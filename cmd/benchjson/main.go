// Command benchjson records and gates the repository's performance
// trajectory. It runs the _test.go benchmarks its gate table names
// through go test, three times each at the default benchtime, and reads
// every figure from their standard output lines: the median of the
// three runs, except allocation counts, which come from the first. It
// writes the figures to BENCH_<date>[-<suffix>].json and, given a
// committed baseline, fails when any gated figure regressed past its
// tolerance class:
//
//	go run ./cmd/benchjson -out dir                                # record
//	go run ./cmd/benchjson -out dir -compare BENCH_<date>-<s>.json # record and gate
//
// The benchmarks build their own fixtures, so every figure is one that
// go test -bench prints for them; go test -cpuprofile profiles one. A
// new figure is one more table row, or one more b.ReportMetric column
// and a row reading it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Directions: which way a figure moves when it regresses. A recorded
// row is written to the report and never gated.
const (
	recorded = 0
	rise     = 1
	fall     = -1
)

// Tolerance classes. Wall clock varies across hardware, and the
// committed baselines come from hosts other than CI's runners, so a
// clock fails only past twice its baseline. Counters and same-host
// ratios do not move with hardware, so they fail past 25%.
const (
	wallClock = 1.0
	strict    = 0.25
)

// row is one figure of the report: column col of benchmark bench (its
// name without the -GOMAXPROCS suffix), or, when per is set, that
// column of bench over the same column of benchmark per.
type row struct {
	field, bench, col, per string
	dir                    int
	tol                    float64
}

var table = []row{
	{"prepared_ns_op", "BenchmarkPreparedMatch/prepared", "ns/op", "", rise, wallClock},
	{"prepare_ns", "BenchmarkPrepare10k/parallel", "ns/op", "", rise, wallClock},
	{"snapshot_load_ns", "BenchmarkSnapshotLoad/memory", "ns/op", "", rise, wallClock},
	{"snapshot_write_ns", "BenchmarkSnapshotWrite10k", "ns/op", "", rise, wallClock},
	{"matchany_ns", "BenchmarkMatchAny/retrieval", "ns/op", "", rise, wallClock},
	{"matchany32_ns", "BenchmarkMatchAny32/retrieval", "ns/op", "", rise, wallClock},
	{"update_ns", "BenchmarkUpdate10k/update", "ns/op", "", rise, wallClock},

	{"prepared_allocs_op", "BenchmarkPreparedMatch/prepared", "allocs/op", "", rise, strict},
	{"cold_allocs_op", "BenchmarkPreparedMatch/cold", "allocs/op", "", rise, strict},
	{"prepare_allocs_op", "BenchmarkPrepare10k/parallel", "allocs/op", "", rise, strict},
	{"snapshot_load_allocs_op", "BenchmarkSnapshotLoad/memory", "allocs/op", "", rise, strict},
	{"snapshot_bytes", "BenchmarkSnapshotLoad/memory", "snapshot-bytes", "", rise, strict},
	{"snapshot_write_bytes_op", "BenchmarkSnapshotWrite10k", "B/op", "", rise, strict},
	{"matchany_allocs_op", "BenchmarkMatchAny/retrieval", "allocs/op", "", rise, strict},
	{"matchany32_allocs_op", "BenchmarkMatchAny32/retrieval", "allocs/op", "", rise, strict},
	{"update_allocs_op", "BenchmarkUpdate10k/update", "allocs/op", "", rise, strict},

	{"matchany_pruned_frac", "BenchmarkMatchAny/retrieval", "pruned-frac", "", fall, strict},
	{"matchany32_pruned_frac", "BenchmarkMatchAny32/retrieval", "pruned-frac", "", fall, strict},
	{"update_vs_prepare_speedup", "BenchmarkUpdate10k/reprepare", "ns/op", "BenchmarkUpdate10k/update", fall, strict},

	{"cold_ns_op", "BenchmarkPreparedMatch/cold", "ns/op", "", recorded, 0},
	{"speedup", "BenchmarkPreparedMatch/cold", "ns/op", "BenchmarkPreparedMatch/prepared", recorded, 0},
	{"prepared_bytes_op", "BenchmarkPreparedMatch/prepared", "B/op", "", recorded, 0},
	{"update_prepare_ns", "BenchmarkUpdate10k/reprepare", "ns/op", "", recorded, 0},
}

// packages hold the table's benchmarks.
var packages = []string{"ctxmatch", "ctxmatch/internal/repository"}

// firstBaseline is the first report measured by the table's benchmarks.
// The reports before it were measured on fixtures of benchjson's own,
// so -compare refuses them.
const firstBaseline = "BENCH_2026-10-19-gatetable.json"

func main() {
	outDir := flag.String("out", ".", "directory to write BENCH_<date>.json into")
	suffix := flag.String("suffix", "", "optional filename suffix (BENCH_<date>-<suffix>.json), for recording more than one point per day")
	comparePath := flag.String("compare", "", "baseline BENCH_*.json: also fail when a gated figure regressed past its tolerance")
	flag.Parse()

	var base map[string]any
	if *comparePath != "" {
		var err error
		base, err = readBaseline(*comparePath)
		exitOn(err)
	}
	var out bytes.Buffer
	for _, pattern := range patterns(table) {
		cmd := exec.Command("go", append([]string{"test", "-run", "^$", "-bench", pattern, "-benchmem", "-count", "3"}, packages...)...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(&out, os.Stderr), os.Stderr
		if err := cmd.Run(); err != nil {
			exitOn(fmt.Errorf("go test -bench %s: %w", pattern, err))
		}
	}
	figs, err := figures(table, parse(out.String(), runtime.GOMAXPROCS(0)))
	exitOn(err)

	date := time.Now().UTC().Format("2006-01-02")
	r := map[string]any{
		"date":       date,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
	}
	for field, v := range figs {
		r[field] = v
	}
	if *suffix != "" {
		date += "-" + *suffix
	}
	path := filepath.Join(*outDir, "BENCH_"+date+".json")
	data, err := json.MarshalIndent(r, "", "  ")
	exitOn(err)
	exitOn(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Println("wrote", path)

	if base != nil && !compare(os.Stdout, table, *comparePath, base, figs) {
		os.Exit(1)
	}
}

// patterns returns the -bench patterns that select the rows'
// benchmarks: one for those without sub-benchmarks and one for the
// sub-benchmarks. A two-level pattern runs a benchmark that has no
// sub-benchmarks only to look for them, and reports nothing for it.
func patterns(rows []row) []string {
	var leaves, parents, subs []string
	add := func(list *[]string, name string) {
		if name = regexp.QuoteMeta(name); !slices.Contains(*list, name) {
			*list = append(*list, name)
		}
	}
	for _, r := range rows {
		for _, name := range []string{r.bench, r.per} {
			if parent, sub, ok := strings.Cut(name, "/"); ok {
				add(&parents, parent)
				add(&subs, sub)
			} else if name != "" {
				add(&leaves, name)
			}
		}
	}
	var out []string
	if len(leaves) > 0 {
		out = append(out, "^("+strings.Join(leaves, "|")+")$")
	}
	if len(parents) > 0 {
		out = append(out, "^("+strings.Join(parents, "|")+")$/^("+strings.Join(subs, "|")+")$")
	}
	return out
}

// parse reads go test -bench output into the columns of each result
// line, keyed by benchmark name without the -procs suffix that go test
// appends when GOMAXPROCS is not 1, in output order.
func parse(out string, procs int) map[string][]map[string]float64 {
	suffix := ""
	if procs != 1 {
		suffix = "-" + strconv.Itoa(procs)
	}
	runs := map[string][]map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		cols := map[string]float64{}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				cols = nil
				break
			}
			cols[f[i+1]] = v
		}
		if cols != nil {
			name := strings.TrimSuffix(f[0], suffix)
			runs[name] = append(runs[name], cols)
		}
	}
	return runs
}

// figures computes every row's figure from runs, and fails naming each
// row whose benchmark or column the output lacks.
func figures(rows []row, runs map[string][]map[string]float64) (map[string]float64, error) {
	figs := map[string]float64{}
	var missing []string
	for _, r := range rows {
		v, ok := figure(runs[r.bench], r.col)
		if ok && r.per != "" {
			var per float64
			per, ok = figure(runs[r.per], r.col)
			ok = ok && per > 0
			v /= per
		}
		if !ok {
			missing = append(missing, fmt.Sprintf("%s (%s %s)", r.field, r.bench, r.col))
			continue
		}
		figs[r.field] = v
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("the benchmark output has no figure for %s", strings.Join(missing, ", "))
	}
	return figs, nil
}

// figure is column col over runs: the allocation columns from the first
// run, every other the median.
func figure(runs []map[string]float64, col string) (float64, bool) {
	var vs []float64
	for _, cols := range runs {
		if v, ok := cols[col]; ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0, false
	}
	if col == "allocs/op" || col == "B/op" {
		return vs[0], true
	}
	slices.Sort(vs)
	return vs[len(vs)/2], true
}

// readBaseline reads a BENCH_*.json file, refusing one recorded before
// the gate table: those carry the "fixture" benchjson built itself.
func readBaseline(path string) (map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base map[string]any
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, old := base["fixture"]; old {
		return nil, fmt.Errorf("%s predates the gate table: its figures were measured on benchjson's own fixtures, not on the _test.go benchmarks; compare against %s or a later BENCH file", path, firstBaseline)
	}
	return base, nil
}

// compare prints every gated row of now against base and reports
// whether all are within their tolerance. A rising figure regresses by
// now/base - 1 and a falling one by base/now - 1, so a ratio's
// tolerance means what it means for the clocks it divides. A field
// the baseline lacks is skipped.
func compare(w io.Writer, rows []row, basePath string, base map[string]any, now map[string]float64) bool {
	fmt.Fprintf(w, "comparing against %s (%v, %v %v/%v, %v CPUs)\n",
		basePath, base["date"], base["go_version"], base["goos"], base["goarch"], base["num_cpu"])
	pass := true
	for _, r := range rows {
		b, _ := base[r.field].(float64)
		switch {
		case r.dir == recorded:
			continue
		case b <= 0:
			fmt.Fprintf(w, "  %-26s not in the baseline: skipped\n", r.field)
			continue
		}
		regress, limit := now[r.field]/b-1, r.tol
		if r.dir == fall {
			regress, limit = b/now[r.field]-1, 1/(1+r.tol)-1
		}
		verdict := "ok"
		if regress > r.tol {
			verdict = fmt.Sprintf("REGRESSED past %+.0f%%", limit*100)
			pass = false
		}
		fmt.Fprintf(w, "  %-26s %14s -> %14s  %+7.1f%%  %s\n", r.field, num(b), num(now[r.field]), (now[r.field]/b-1)*100, verdict)
	}
	if pass {
		fmt.Fprintln(w, "bench regression gate: PASS")
	} else {
		fmt.Fprintln(w, "bench regression gate: FAIL")
	}
	return pass
}

// num formats a figure: counts and clocks whole, ratios to four
// significant digits.
func num(v float64) string {
	if v >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
