package ctxmatch_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// pairwiseNGram is the exhaustive reference for the instance 3-gram
// matcher: it scores every string column pair by the pairwise
// merge-walk cosine of the two columns' aggregate trigram vectors and
// never consults the candidate index. Swapped into the default suite
// by pairwiseEngine, it is the oracle indexed scoring must reproduce
// bit for bit, and the all-pairs baseline the 10k benchmark times.
type pairwiseNGram struct{ match.ValueNGramMatcher }

// Score implements match.AttrMatcher: the squared merge-walk cosine.
func (m pairwiseNGram) Score(cache *match.FeatureCache, src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string) float64 {
	if !m.Applicable(src, srcAttr, tgt, tgtAttr) {
		return 0
	}
	c := tokenize.CosineIDs(cache.NGramVector(src, srcAttr), cache.NGramVector(tgt, tgtAttr))
	return c * c
}

// pairwiseEngine returns the default engine with its n-gram matcher
// replaced by the pairwise oracle; every other matcher is unchanged.
func pairwiseEngine() *match.Engine {
	eng := match.NewEngine()
	for i, m := range eng.Matchers {
		if ng, ok := m.(match.ValueNGramMatcher); ok {
			eng.Matchers[i] = pairwiseNGram{ng}
		}
	}
	return eng
}

// renderResult serializes the full public result — selected matches and
// standard matches, with every floating-point quality number at full
// precision — so two runs can be compared for exact edge equality.
func renderResult(res *ctxmatch.Result) string {
	var b strings.Builder
	for _, m := range res.Matches {
		fmt.Fprintf(&b, "M %v score=%.17g conf=%.17g\n", m, m.Score, m.Confidence)
	}
	for _, m := range res.Standard {
		fmt.Fprintf(&b, "S %v score=%.17g conf=%.17g\n", m, m.Score, m.Confidence)
	}
	return b.String()
}

// TestIndexedScoringMatchesExhaustive is the exactness property of the
// candidate-generation subsystem: matching through the default engine,
// whose n-gram scores come from the inverted gram-ID index, must
// produce Result edges byte-identical to the pairwise oracle
// (pairwiseEngine), at 1 and 8 workers alike (which also exercises the
// parallel Prepare merge and the prewarmed row path). Candidate
// pruning may only skip pairs that provably score zero, so not a
// single confidence bit may move.
func TestIndexedScoringMatchesExhaustive(t *testing.T) {
	fixtures := map[string]*datagen.Dataset{
		"inventory": datagen.Inventory(datagen.InventoryConfig{
			Rows: 120, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: 1,
		}),
		"inventory-scaled": datagen.Inventory(datagen.InventoryConfig{
			Rows: 80, TargetRows: 40, Gamma: 4, Target: datagen.Aaron, Seed: 2, Scale: 4,
		}),
		"grades": datagen.Grades(datagen.GradesConfig{
			Students: 60, Exams: 4, Sigma: 6, Seed: 1,
		}),
	}
	for name, ds := range fixtures {
		t.Run(name, func(t *testing.T) {
			type run struct {
				workers  int
				pairwise bool
			}
			var baseline string
			var baselineRun run
			for _, r := range []run{
				{1, true}, {1, false}, {8, true}, {8, false},
			} {
				eng := match.NewEngine()
				if r.pairwise {
					eng = pairwiseEngine()
				}
				m := mustNew(t,
					ctxmatch.WithEngine(eng),
					ctxmatch.WithParallelism(r.workers),
					ctxmatch.WithSeed(5),
				)
				prepared, err := m.Prepare(context.Background(), ds.Target)
				if err != nil {
					t.Fatalf("%+v: Prepare: %v", r, err)
				}
				res, err := prepared.Match(context.Background(), ds.Source)
				if err != nil {
					t.Fatalf("%+v: Match: %v", r, err)
				}
				st := prepared.Stats()
				if st.IndexPostings == 0 || st.IndexBytes == 0 {
					t.Errorf("%+v: handle reports no index: %+v", r, st)
				}
				if hr := st.IndexHitRate; !r.pairwise && (hr <= 0 || hr > 1) {
					t.Errorf("%+v: hit rate %v outside (0,1]", r, hr)
				}
				got := renderResult(res)
				if got == "" {
					t.Fatalf("%+v: empty result", r)
				}
				if baseline == "" {
					baseline, baselineRun = got, r
					continue
				}
				if got != baseline {
					t.Errorf("%+v diverged from %+v:\n got: %s\nwant: %s",
						r, baselineRun, excerptDiff(got, baseline), excerptDiff(baseline, got))
				}
			}
		})
	}
}

// excerptDiff returns the first line of a that differs from b, to keep
// failure output readable.
func excerptDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return fmt.Sprintf("line %d: %s", i, al[i])
		}
	}
	return "(prefix equal)"
}

// TestPreparedStatsReportIndex: a served match must move the index's
// lifetime retrieval counters, and the daemon-facing stats must expose
// them.
func TestPreparedStatsReportIndex(t *testing.T) {
	ds := datagen.Inventory(datagen.InventoryConfig{
		Rows: 60, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 1,
	})
	m := mustNew(t, ctxmatch.WithParallelism(2))
	prepared, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	if hr := prepared.Stats().IndexHitRate; hr != 0 {
		t.Errorf("hit rate before any match = %v, want 0", hr)
	}
	if _, err := prepared.Match(context.Background(), ds.Source); err != nil {
		t.Fatal(err)
	}
	st := prepared.Stats()
	if st.IndexPostings <= 0 {
		t.Errorf("IndexPostings = %d, want > 0", st.IndexPostings)
	}
	if st.IndexBytes <= 0 {
		t.Errorf("IndexBytes = %d, want > 0", st.IndexBytes)
	}
	if st.IndexHitRate <= 0 || st.IndexHitRate > 1 {
		t.Errorf("IndexHitRate after a match = %v, want in (0,1]", st.IndexHitRate)
	}
}
