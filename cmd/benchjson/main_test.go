package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// canned is the output of go test -run '^$' -bench <patterns> -benchmem
// -count 3 over both packages at GOMAXPROCS 2, with a few allocation
// counts edited so that the first run differs from the median.
const canned = `goos: linux
goarch: amd64
pkg: ctxmatch
cpu: AMD EPYC 7B13
BenchmarkSnapshotWrite10k-2   	     240	   5311656 ns/op	1324.99 MB/s	 5785825 B/op	    1527 allocs/op
BenchmarkSnapshotWrite10k-2   	     228	   5494568 ns/op	1280.88 MB/s	 5785824 B/op	    1527 allocs/op
BenchmarkSnapshotWrite10k-2   	     206	   5453690 ns/op	1290.48 MB/s	 5785825 B/op	    1527 allocs/op
PASS
ok  	ctxmatch	5.618s
PASS
ok  	ctxmatch/internal/repository	0.004s
goos: linux
goarch: amd64
pkg: ctxmatch
cpu: AMD EPYC 7B13
BenchmarkPreparedMatch/cold-2         	      45	  22988092 ns/op	 7197683 B/op	   19777 allocs/op
BenchmarkPreparedMatch/cold-2         	      39	  26244146 ns/op	 7199857 B/op	   19777 allocs/op
BenchmarkPreparedMatch/cold-2         	      42	  26389407 ns/op	 7208927 B/op	   19778 allocs/op
BenchmarkPreparedMatch/prepared-2     	     271	   4051017 ns/op	 1105165 B/op	    6234 allocs/op
BenchmarkPreparedMatch/prepared-2     	     283	   3802932 ns/op	 1106000 B/op	    6232 allocs/op
BenchmarkPreparedMatch/prepared-2     	     286	   3708678 ns/op	 1102271 B/op	    6233 allocs/op
BenchmarkPrepare10k/parallel-2        	      12	 100525976 ns/op	70245164 B/op	   57430 allocs/op
BenchmarkPrepare10k/parallel-2        	      10	 102419204 ns/op	70246080 B/op	   57430 allocs/op
BenchmarkPrepare10k/parallel-2        	      10	 106337986 ns/op	70253728 B/op	   57432 allocs/op
BenchmarkSnapshotLoad/memory-2        	      40	  30117436 ns/op	 233.68 MB/s	   7037872 snapshot-bytes	49777048 B/op	  122802 allocs/op
BenchmarkSnapshotLoad/memory-2        	      49	  31662786 ns/op	 222.28 MB/s	   7037872 snapshot-bytes	49777048 B/op	  122802 allocs/op
BenchmarkSnapshotLoad/memory-2        	      44	  28280467 ns/op	 248.86 MB/s	   7037872 snapshot-bytes	49777049 B/op	  122802 allocs/op
BenchmarkUpdate10k/update-2           	      30	  34059091 ns/op	47029991 B/op	   46495 allocs/op
BenchmarkUpdate10k/update-2           	      43	  34115852 ns/op	47029991 B/op	   46495 allocs/op
BenchmarkUpdate10k/update-2           	      32	  32707119 ns/op	47029991 B/op	   46495 allocs/op
BenchmarkUpdate10k/reprepare-2        	       8	 156757037 ns/op	70089947 B/op	   57390 allocs/op
BenchmarkUpdate10k/reprepare-2        	       7	 146268966 ns/op	70089992 B/op	   57390 allocs/op
BenchmarkUpdate10k/reprepare-2        	       7	 165202931 ns/op	70089994 B/op	   57390 allocs/op
PASS
ok  	ctxmatch	28.189s
goos: linux
goarch: amd64
pkg: ctxmatch/internal/repository
cpu: AMD EPYC 7B13
BenchmarkMatchAny/retrieval-2         	      30	  39036103 ns/op	         0.1250 pruned-frac	13864597 B/op	   87971 allocs/op
BenchmarkMatchAny/retrieval-2         	      30	  40931157 ns/op	         0.1250 pruned-frac	13894532 B/op	   87978 allocs/op
BenchmarkMatchAny/retrieval-2         	      31	  42481862 ns/op	         0.1250 pruned-frac	13884507 B/op	   87975 allocs/op
BenchmarkMatchAny32/retrieval-2       	      28	  46672231 ns/op	         0.7812 pruned-frac	12840716 B/op	   79609 allocs/op
BenchmarkMatchAny32/retrieval-2       	      32	  41896501 ns/op	         0.7812 pruned-frac	12829195 B/op	   79605 allocs/op
BenchmarkMatchAny32/retrieval-2       	      28	  40177288 ns/op	         0.7812 pruned-frac	12859331 B/op	   79608 allocs/op
BenchmarkFleetInstall/aaron-1-2       	    1239	    912345 ns/op	  301234 B/op	    1234 allocs/op
PASS
ok  	ctxmatch/internal/repository	10.194s
`

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name, out string
		procs     int
		bench     string
		col       string
		want      []float64
	}{
		{"GOMAXPROCS suffix stripped", canned, 2, "BenchmarkPreparedMatch/prepared", "ns/op", []float64{4051017, 3802932, 3708678}},
		{"only the GOMAXPROCS suffix", canned, 2, "BenchmarkFleetInstall/aaron-1", "allocs/op", []float64{1234}},
		{"no suffix at GOMAXPROCS 1", "BenchmarkFleetInstall/aaron-1 \t 10\t 912345 ns/op\n", 1, "BenchmarkFleetInstall/aaron-1", "ns/op", []float64{912345}},
		{"MB/s column", canned, 2, "BenchmarkSnapshotLoad/memory", "MB/s", []float64{233.68, 222.28, 248.86}},
		{"custom metric", canned, 2, "BenchmarkSnapshotLoad/memory", "snapshot-bytes", []float64{7037872, 7037872, 7037872}},
		{"custom metric before -benchmem columns", canned, 2, "BenchmarkMatchAny32/retrieval", "pruned-frac", []float64{0.7812, 0.7812, 0.7812}},
		{"-benchmem column after custom metrics", canned, 2, "BenchmarkSnapshotLoad/memory", "allocs/op", []float64{122802, 122802, 122802}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := parse(tc.out, tc.procs)[tc.bench]
			if len(runs) != len(tc.want) {
				t.Fatalf("%d runs of %s, want %d", len(runs), tc.bench, len(tc.want))
			}
			for i, cols := range runs {
				if got, ok := cols[tc.col]; !ok || got != tc.want[i] {
					t.Errorf("run %d %s = %v (present %v), want %v", i, tc.col, got, ok, tc.want[i])
				}
			}
		})
	}
}

func TestFigures(t *testing.T) {
	figs, err := figures(table, parse(canned, 2))
	if err != nil {
		t.Fatal(err)
	}
	for field, want := range map[string]float64{
		"prepared_ns_op":            3802932, // median of three
		"prepared_allocs_op":        6234,    // first run, not the median 6233
		"snapshot_load_ns":          30117436,
		"snapshot_bytes":            7037872,
		"matchany32_pruned_frac":    0.7812,
		"update_vs_prepare_speedup": 156757037.0 / 34059091, // medians of the same run
		"speedup":                   26244146.0 / 3802932,
	} {
		if figs[field] != want {
			t.Errorf("%s = %v, want %v", field, figs[field], want)
		}
	}
	if len(figs) != len(table) {
		t.Errorf("%d figures for %d rows", len(figs), len(table))
	}

	// A benchmark missing from the output fails the run, naming every
	// row it feeds, a ratio's divisor included; so does a missing column.
	without := func(prefix string) string {
		var kept []string
		for _, line := range strings.Split(canned, "\n") {
			if !strings.HasPrefix(line, prefix) {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	for out, want := range map[string][]string{
		without("BenchmarkSnapshotWrite10k"):                    {"snapshot_write_ns", "snapshot_write_bytes_op"},
		without("BenchmarkUpdate10k/update-"):                   {"update_ns", "update_allocs_op", "update_vs_prepare_speedup"},
		strings.ReplaceAll(canned, "pruned-frac", "other-frac"): {"matchany_pruned_frac", "matchany32_pruned_frac"},
	} {
		_, err := figures(table, parse(out, 2))
		for _, field := range want {
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("error %v does not name %s", err, field)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		field     string
		base, now float64
		pass      bool
	}{
		{"prepared_ns_op", 100, 199, true}, // wall clock: fails past +100%
		{"prepared_ns_op", 100, 201, false},
		{"prepared_allocs_op", 100, 124.9, true}, // strict: fails past +25%
		{"prepared_allocs_op", 100, 125.1, false},
		{"matchany32_pruned_frac", 1, 0.81, true}, // strict fall: fails below 1/1.25
		{"matchany32_pruned_frac", 1, 0.79, false},
		{"matchany32_pruned_frac", 1, 0, false},
		{"update_vs_prepare_speedup", 5, 4.01, true},
		{"update_vs_prepare_speedup", 5, 3.99, false},
		{"cold_ns_op", 1, 100, true}, // recorded, never gated
		{"update_ns", 0, 1e9, true},  // not in the baseline: skipped
	} {
		i := slices.IndexFunc(table, func(r row) bool { return r.field == tc.field })
		if i < 0 {
			t.Fatalf("no row %s", tc.field)
		}
		base := map[string]any{}
		if tc.base > 0 {
			base[tc.field] = tc.base
		}
		var out strings.Builder
		if got := compare(&out, table[i:i+1], "base.json", base, map[string]float64{tc.field: tc.now}); got != tc.pass {
			t.Errorf("%s %v -> %v: pass %v, want %v\n%s", tc.field, tc.base, tc.now, got, tc.pass, out.String())
		}
		if tc.base == 0 && !strings.Contains(out.String(), "skipped") {
			t.Errorf("%s not reported as skipped:\n%s", tc.field, out.String())
		}
	}
}

// TestPatterns checks that each row's benchmark is selected by a
// pattern with as many levels as its name, the only kind of pattern
// under which go test reports it.
func TestPatterns(t *testing.T) {
	pats := patterns(table)
	for _, r := range table {
		for _, name := range []string{r.bench, r.per} {
			if name == "" {
				continue
			}
			levels := strings.Split(name, "/")
			found := false
			for _, p := range pats {
				parts := strings.Split(p, "/")
				if len(parts) != len(levels) {
					continue
				}
				match := true
				for i, part := range parts {
					match = match && regexp.MustCompile(part).MatchString(levels[i])
				}
				found = found || match
			}
			if !found {
				t.Errorf("no pattern in %q selects %s", pats, name)
			}
		}
	}
}

// TestReadBaseline reads every committed BENCH file: the first one the
// table measured and those after it load, and each before it is
// refused with a message naming the first.
func TestReadBaseline(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join("..", "..", firstBaseline)); err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		_, err := readBaseline(path)
		if filepath.Base(path) < firstBaseline {
			if err == nil || !strings.Contains(err.Error(), firstBaseline) {
				t.Errorf("%s: error %v, want a refusal naming %s", path, err, firstBaseline)
			}
			continue
		}
		if err != nil {
			t.Error(err)
		}
	}
}
