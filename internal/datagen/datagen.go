// Package datagen synthesizes the two data sets of the paper's
// experimental study (§5) and their gold standards.
//
// The paper evaluates on (a) a Retail/Inventory data set assembled from
// UW schema-matching-corpus schemas populated with data scraped from
// commercial web sites, and (b) an artificially generated Grades data
// set. Neither the scraped data nor the corpus is available today, so
// this package generates synthetic equivalents whose populations have
// the same separability structure (see DESIGN.md, Substitution 1): a
// combined inventory whose book and music rows differ in code format,
// price range, format vocabulary and (partially) title vocabulary, and a
// narrow/wide grades pair whose exam scores share means and deviations
// but not values.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"ctxmatch"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/stats"
)

// GoldPair is one manually designated correct contextual match: source
// attribute → target attribute, valid only under a context that selects
// exclusively the given side (e.g. only book subtypes, or only exam 2).
type GoldPair struct {
	SourceAttr  string
	TargetTable string
	TargetAttr  string
	// Side is the context the condition must isolate: a subtype name
	// ("book", "music") or an exam side ("exam0" …).
	Side string
}

// Dataset bundles generated schemas with their gold standard and the
// context semantics needed to judge a condition.
type Dataset struct {
	Source *relational.Schema
	Target *relational.Schema
	Gold   []GoldPair
	// ContextAttr is the source attribute correct conditions range over
	// (ItemType for inventory, examNum for grades).
	ContextAttr string
	// SideOf maps a context-attribute value to its side label.
	SideOf func(relational.Value) string
	// Neutral, when non-nil, marks attribute pairs the evaluation
	// ignores entirely. The §5.5 schema-size experiments populate extra
	// source and target attributes from the same unrelated domain; the
	// paper observes that these "tend to match with each other, reducing
	// that type of error" — matches among them are neither correct nor
	// errors.
	Neutral func(sourceAttr, targetAttr string) bool
}

// CondSide returns the unique side selected by a condition, judging
// against the active domain of the dataset's context attribute. ok is
// false when the condition mentions anything other than ContextAttr,
// selects values from more than one side, or selects nothing.
func (d *Dataset) CondSide(src *relational.Table, cond relational.Condition) (string, bool) {
	if cond == nil {
		return "", false
	}
	attrs := cond.Attrs()
	if len(attrs) != 1 || attrs[0] != d.ContextAttr {
		return "", false
	}
	base := src.Root()
	i := base.AttrIndex(d.ContextAttr)
	if i < 0 {
		return "", false
	}
	side := ""
	for _, v := range base.DistinctValues(d.ContextAttr) {
		row := make(relational.Tuple, len(base.Attrs))
		for k := range row {
			row[k] = relational.Null
		}
		row[i] = v
		if !cond.Eval(base, row) {
			continue
		}
		s := d.SideOf(v)
		if side == "" {
			side = s
		} else if side != s {
			return "", false // mixes sides
		}
	}
	return side, side != ""
}

// Evaluate scores selected matches against the gold standard exactly as
// §5 prescribes: only edges originating from views are considered;
// accuracy (recall) is the percentage of gold pairs found, precision the
// percentage of found view edges that are correct.
func (d *Dataset) Evaluate(selected []match.Match) stats.PR {
	goldSet := map[string]bool{}
	for _, g := range d.Gold {
		goldSet[goldKey(g.SourceAttr, g.TargetTable, g.TargetAttr, g.Side)] = false
	}
	tp, fp := 0, 0
	for _, m := range selected {
		if !m.Source.IsView() {
			continue
		}
		if d.Neutral != nil && d.Neutral(m.SourceAttr, m.TargetAttr) {
			continue
		}
		side, ok := d.CondSide(m.Source, m.Cond)
		key := goldKey(m.SourceAttr, m.Target.Name, m.TargetAttr, side)
		if ok {
			if _, isGold := goldSet[key]; isGold {
				tp++
				goldSet[key] = true
				continue
			}
		}
		fp++
	}
	found := 0
	for _, hit := range goldSet {
		if hit {
			found++
		}
	}
	var pr stats.PR
	if tp+fp > 0 {
		pr.Precision = float64(tp) / float64(tp+fp)
	}
	if len(goldSet) > 0 {
		pr.Recall = float64(found) / float64(len(goldSet))
	}
	return pr
}

// EvaluateEdges scores the public, reference-based match edges of a
// ctxmatch.Result against the gold standard. Each view edge is rebound
// to this dataset's source schema by re-materializing the view from its
// (base, condition) pair, then judged exactly as Evaluate judges the
// internal form.
func (d *Dataset) EvaluateEdges(edges []ctxmatch.MatchEdge) stats.PR {
	return d.Evaluate(d.matchesFromEdges(edges))
}

// FMeasureEdges evaluates public edges and returns the §5 FMeasure in
// [0,100].
func (d *Dataset) FMeasureEdges(edges []ctxmatch.MatchEdge) float64 {
	pr := d.EvaluateEdges(edges)
	return stats.FMeasure100(pr.Precision, pr.Recall)
}

// matchesFromEdges rebinds public edges to this dataset's schemas. The
// evaluation needs live source views (CondSide walks the base sample);
// target tables are only compared by name, so unknown ones become
// empty stand-ins rather than errors.
func (d *Dataset) matchesFromEdges(edges []ctxmatch.MatchEdge) []match.Match {
	views := map[string]*relational.Table{}
	out := make([]match.Match, 0, len(edges))
	for _, e := range edges {
		var src *relational.Table
		switch {
		case !e.Source.IsView():
			if src = d.Source.Table(e.Source.Name); src == nil {
				src = relational.NewTable(e.Source.Name)
			}
		case views[e.Source.Name] != nil:
			src = views[e.Source.Name]
		default:
			base := d.Source.Table(e.Source.Base)
			if base == nil {
				continue // not a view of this dataset; nothing to judge
			}
			src = base.Select(e.Source.Name, e.Cond)
			views[e.Source.Name] = src
		}
		tgt := d.Target.Table(e.Target.Name)
		if tgt == nil {
			tgt = relational.NewTable(e.Target.Name)
		}
		out = append(out, match.Match{
			Source:     src,
			SourceAttr: e.SourceAttr,
			Target:     tgt,
			TargetAttr: e.TargetAttr,
			Cond:       e.Cond,
			Score:      e.Score,
			Confidence: e.Confidence,
		})
	}
	return out
}

func goldKey(srcAttr, tgtTable, tgtAttr, side string) string {
	return srcAttr + "\x00" + tgtTable + "\x00" + tgtAttr + "\x00" + side
}

// --- shared generator helpers ---

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

func titleFrom(rng *rand.Rand, pool []string) string {
	n := 2 + rng.Intn(3)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = pick(rng, pool)
	}
	return strings.Join(parts, " ")
}

func personName(rng *rand.Rand) string {
	return pick(rng, firstNames) + " " + pick(rng, lastNames)
}

func artistName(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "the " + pick(rng, albumTitleWords) + "s"
	}
	return personName(rng)
}

func publisherName(rng *rand.Rand) string {
	return pick(rng, publisherStems) + " " + pick(rng, publisherSuffixes)
}

func labelName(rng *rand.Rand) string {
	return pick(rng, labelStems) + " " + pick(rng, labelSuffixes)
}

// isbn generates hyphenated ISBN-13-style identifiers
// ("978-0-486-61272-4"); the constant prefix mirrors real ISBN structure
// and gives the column the same kind of shared gram mass that ASINs get
// from their "B00" prefix.
func isbn(rng *rand.Rand) string {
	return fmt.Sprintf("978-0-%03d-%05d-%d", rng.Intn(1000), rng.Intn(100000), rng.Intn(10))
}

const asinAlphabet = "ABCDEFGHJKLMNPQRSTUVWXYZ0123456789"

func asinCode(rng *rand.Rand) string {
	b := []byte("B00")
	for i := 0; i < 7; i++ {
		b = append(b, asinAlphabet[rng.Intn(len(asinAlphabet))])
	}
	return string(b)
}

func realEstateValue(rng *rand.Rand) string {
	return fmt.Sprintf("%d %s %s, %s", 1+rng.Intn(9999),
		pick(rng, streetNames), pick(rng, streetSuffixes), pick(rng, cityNames))
}

func bookPrice(rng *rand.Rand) float64 {
	p := 24 + rng.NormFloat64()*4
	if p < 3 {
		p = 3
	}
	return roundCents(p)
}

func musicPrice(rng *rand.Rand) float64 {
	p := 11 + rng.NormFloat64()*2
	if p < 3 {
		p = 3
	}
	return roundCents(p)
}

func roundCents(p float64) float64 { return float64(int(p*100)) / 100 }
