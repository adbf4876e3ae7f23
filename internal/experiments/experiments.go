// Package experiments regenerates every figure of the paper's
// experimental study (§5, Figures 8-22). Each figure has a runner that
// sweeps the figure's parameter, executes contextual schema matching on
// freshly generated data, evaluates against the gold standard, and
// returns a Figure whose rows print like the paper's plotted series.
//
// Absolute numbers differ from the paper's (synthetic data, Go runtime,
// different hardware); the quantities, axes and expected shapes match.
// The README's "Paper vs this repo" table records every quality figure
// at QuickConfig, read off testdata/quick-figures.golden.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"ctxmatch"
	"ctxmatch/internal/core"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/stats"
)

// Config scales the experiment suite. Defaults reproduce the paper's
// setup; benchmarks shrink Rows/Repeats to keep iterations fast.
type Config struct {
	// Rows is the inventory source sample size.
	Rows int
	// TargetRows is the sample size per target table.
	TargetRows int
	// Students is the Grades data set size (the paper uses 200).
	Students int
	// Repeats is the number of random partitions averaged per data
	// point (the paper averages 8-200; the defaults here trade a little
	// variance for runtime).
	Repeats int
	// Seed is the base random seed; repeat r of any point derives its
	// own stream from it.
	Seed int64
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{Rows: 600, TargetRows: 250, Students: 200, Repeats: 3, Seed: 1}
}

// QuickConfig returns a reduced configuration for benchmarks and smoke
// tests.
func QuickConfig() Config {
	return Config{Rows: 240, TargetRows: 120, Students: 120, Repeats: 1, Seed: 1}
}

// Point is one x position of a figure with one y value per series.
type Point struct {
	X float64
	Y map[string]float64
}

// Figure is a reproduced table/figure: an ordered set of series sampled
// at the swept x positions.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []string
	Points []Point
}

// Add appends a point, keeping points ordered by X as runners sweep.
func (f *Figure) Add(x float64, y map[string]float64) {
	f.Points = append(f.Points, Point{X: x, Y: y})
}

// String renders the figure as an aligned text table, one row per x.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteByte('\n')
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-12.4g", p.X)
		for _, s := range f.Series {
			if y, ok := p.Y[s]; ok {
				fmt.Fprintf(&b, " %14.2f", y)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner produces one figure under a configuration.
type Runner func(Config) *Figure

// Registry maps figure identifiers ("fig08" … "fig22") to runners.
var Registry = map[string]Runner{
	"fig08": Fig08, "fig09": Fig09, "fig10": Fig10,
	"fig11": Fig11, "fig12": Fig12, "fig13": Fig13,
	"fig14": Fig14, "fig15": Fig15, "fig16": Fig16,
	"fig17": Fig17, "fig18": Fig18, "fig19": Fig19,
	"fig20": Fig20, "fig21": Fig21, "fig22": Fig22,
}

// IDs returns the registered figure identifiers in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// run executes one matching run through the public Matcher API and
// returns the evaluation of the selected matches plus the elapsed
// seconds. Parallelism is pinned to 1 so the timing figures chart the
// algorithm, not the machine. Generated datasets are never empty and
// the context is never canceled, so an error here is a bug in the
// suite itself.
func run(ds *datagen.Dataset, opt core.Options) (stats.PR, float64) {
	m, err := ctxmatch.New(ctxmatch.WithOptions(opt), ctxmatch.WithParallelism(1))
	if err != nil {
		panic(fmt.Sprintf("experiments: invalid options: %v", err))
	}
	res, err := m.Match(context.Background(), ds.Source, ds.Target)
	if err != nil {
		panic(fmt.Sprintf("experiments: ContextMatch failed: %v", err))
	}
	return ds.EvaluateEdges(res.Matches), res.Elapsed.Seconds()
}

// averageF repeats a single-point experiment and averages FMeasure.
func averageF(cfg Config, mk func(seed int64) (*datagen.Dataset, core.Options)) float64 {
	var sum float64
	for r := 0; r < cfg.Repeats; r++ {
		ds, opt := mk(cfg.Seed + int64(r)*7919)
		pr, _ := run(ds, opt)
		sum += stats.FMeasure100(pr.Precision, pr.Recall)
	}
	return sum / float64(cfg.Repeats)
}

// averageAcc repeats a single-point experiment and averages accuracy
// (recall ×100), the metric of Figures 19-21.
func averageAcc(cfg Config, mk func(seed int64) (*datagen.Dataset, core.Options)) float64 {
	var sum float64
	for r := 0; r < cfg.Repeats; r++ {
		ds, opt := mk(cfg.Seed + int64(r)*7919)
		pr, _ := run(ds, opt)
		sum += 100 * pr.Recall
	}
	return sum / float64(cfg.Repeats)
}

// averageTime repeats a single-point experiment and averages elapsed
// seconds.
func averageTime(cfg Config, mk func(seed int64) (*datagen.Dataset, core.Options)) float64 {
	var sum float64
	for r := 0; r < cfg.Repeats; r++ {
		ds, opt := mk(cfg.Seed + int64(r)*7919)
		_, secs := run(ds, opt)
		sum += secs
	}
	return sum / float64(cfg.Repeats)
}

// inventoryOptions returns the paper's default algorithm options for the
// inventory experiments.
func inventoryOptions(seed int64) core.Options {
	opt := core.DefaultOptions()
	opt.Seed = seed
	return opt
}

// gradesOptions returns the configuration of §5.7: LateDisjuncts (every
// exam view that clears ω must be selected, the union standing in for
// the full partition) with ClioQualTable-style selection. τ is 0.4
// rather than the inventory default 0.5: the grades matches "are more
// tenuous" (§5.8) and our matcher places the extreme exams' prototypes
// just below 0.5, the same borderline the paper observed at 0.65 —
// Figure 21 charts exactly this sensitivity.
func gradesOptions(seed int64) core.Options {
	opt := core.DefaultOptions()
	opt.Seed = seed
	opt.EarlyDisjuncts = false
	opt.Tau = 0.4
	return opt
}

// invDataset builds an inventory dataset bound to a config.
func invDataset(cfg Config, mut func(*datagen.InventoryConfig)) *datagen.Dataset {
	ic := datagen.DefaultInventoryConfig()
	ic.Rows = cfg.Rows
	ic.TargetRows = cfg.TargetRows
	if mut != nil {
		mut(&ic)
	}
	return datagen.Inventory(ic)
}
