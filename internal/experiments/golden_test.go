package experiments

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the current code")

// goldenPath holds every value of the quality figures at QuickConfig.
const goldenPath = "testdata/quick-figures.golden"

// goldenFigures are the quality figures: F-measure (8-14, 16, 18) and
// accuracy (19-21). The timing figures 15, 17 and 22 measure the
// machine, not the algorithm, and stay out.
var goldenFigures = []string{
	"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig16", "fig18", "fig19", "fig20", "fig21",
}

// renderGolden writes one line per (x, series) of the figure, in sweep
// and series order, with every number in its shortest exact form.
func renderGolden(f *Figure) string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, p := range f.Points {
		for _, s := range f.Series {
			y, ok := p.Y[s]
			v := "-"
			if ok {
				v = num(y)
			}
			fmt.Fprintf(&b, "%s x=%s %s %s\n", f.ID, num(p.X), s, v)
		}
	}
	return b.String()
}

// TestQuickFiguresGolden pins the reproduction to the paper's figures:
// matching is deterministic per seed, so every quality-figure value at
// QuickConfig must equal the committed one exactly. A change that moves
// any of them is a change to what the repository reproduces; rerun
// with -update to rewrite the file, and say why in CHANGES.md.
func TestQuickFiguresGolden(t *testing.T) {
	got := make([]string, len(goldenFigures))
	t.Run("figures", func(t *testing.T) {
		for i, id := range goldenFigures {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				got[i] = renderGolden(Registry[id](QuickConfig()))
			})
		}
	})
	if t.Failed() {
		return
	}
	all := strings.Join(got, "")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(all), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(all, "\n"), strings.Split(string(raw), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, want %q", i+1, gotLines[i], wantLines[i])
		}
	}
}
