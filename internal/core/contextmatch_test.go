package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ctxmatch/internal/relational"
)

func TestInferCandidateViewsEmptyWithoutMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src, tgt := invFixture(rng, 100, 2)
	for _, inf := range []Inference{NaiveInfer, SrcClassInfer, TgtClassInfer} {
		opt := DefaultOptions()
		opt.Inference = inf
		if got := InferCandidateViews(src, tgt, false, opt); len(got) != 0 {
			t.Errorf("%v: candidates without matches: %v", inf, got)
		}
	}
}

func TestNaiveInferSimpleConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src, _ := invFixture(rng, 200, 4)
	opt := DefaultOptions()
	opt.Inference = NaiveInfer
	opt.EarlyDisjuncts = false
	cands := InferCandidateViews(src, nil, true, opt)
	// ItemType has 4 values, StockStatus 3: 7 simple conditions.
	if len(cands) != 7 {
		t.Errorf("got %d candidates, want 7", len(cands))
		for _, c := range cands {
			t.Logf("  %v", c.Cond)
		}
	}
	for _, c := range cands {
		if _, ok := c.Cond.(relational.Eq); !ok {
			t.Errorf("LateDisjuncts NaiveInfer must emit only Eq: %v", c.Cond)
		}
		if c.Family != nil {
			t.Error("NaiveInfer has no family provenance")
		}
	}
}

func TestNaiveInferEarlyDisjunctsEnumeratesSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src, _ := invFixture(rng, 200, 4)
	opt := DefaultOptions()
	opt.Inference = NaiveInfer
	opt.EarlyDisjuncts = true
	cands := InferCandidateViews(src, nil, true, opt)
	// ItemType (4 values): 2^4-2 = 14 subsets; StockStatus (3): 2^3-2 = 6.
	if len(cands) != 20 {
		t.Errorf("got %d candidates, want 20", len(cands))
	}
}

func TestDedupCandidates(t *testing.T) {
	c1 := Candidate{Cond: relational.Eq{Attr: "a", Value: relational.I(1)}}
	c2 := Candidate{Cond: relational.Eq{Attr: "a", Value: relational.I(1)}}
	c3 := Candidate{Cond: relational.Eq{Attr: "a", Value: relational.I(2)}}
	out := dedupCandidates([]Candidate{c1, c2, c3})
	if len(out) != 2 {
		t.Errorf("dedup kept %d, want 2", len(out))
	}
}

// mustContextMatch runs ContextMatch under a background context and
// fails the test on error; the fixtures here are never empty or
// canceled.
func mustContextMatch(t *testing.T, src, tgt *relational.Schema, opt Options) *Result {
	t.Helper()
	res, err := ContextMatch(context.Background(), src, tgt, opt)
	if err != nil {
		t.Fatalf("ContextMatch: %v", err)
	}
	return res
}

// contextMatchFixture runs ContextMatch on the standard fixture.
func contextMatchFixture(t *testing.T, seed int64, n, gamma int, mut func(*Options)) (*relational.Table, *Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src, tgt := invFixture(rng, n, gamma)
	opt := DefaultOptions()
	opt.Seed = seed
	if mut != nil {
		mut(&opt)
	}
	return src, mustContextMatch(t, relational.NewSchema("RS", src), tgt, opt)
}

// assertContextCorrect checks that every contextual match feeding the
// book table selects only book labels and vice versa, and that both
// target tables received contextual matches.
func assertContextCorrect(t *testing.T, src *relational.Table, res *Result) {
	t.Helper()
	ctx := res.ContextualMatches()
	if len(ctx) == 0 {
		t.Fatal("no contextual matches selected")
	}
	seenBook, seenMusic := false, false
	for _, m := range ctx {
		attrs := m.Cond.Attrs()
		if len(attrs) != 1 || attrs[0] != "ItemType" {
			t.Errorf("condition on wrong attribute: %v", m)
			continue
		}
		switch m.Target.Name {
		case "book":
			seenBook = true
			if !condCoversOnly(src, m.Cond, isBookLabel) {
				t.Errorf("book match conditioned on CD labels: %v", m)
			}
		case "music":
			seenMusic = true
			if !condCoversOnly(src, m.Cond, func(v relational.Value) bool { return !isBookLabel(v) }) {
				t.Errorf("music match conditioned on book labels: %v", m)
			}
		}
	}
	if !seenBook || !seenMusic {
		t.Errorf("contextual matches missing a target: book=%v music=%v", seenBook, seenMusic)
	}
}

func TestContextMatchSrcClassEarly(t *testing.T) {
	src, res := contextMatchFixture(t, 10, 400, 4, func(o *Options) {
		o.Inference = SrcClassInfer
		o.EarlyDisjuncts = true
	})
	assertContextCorrect(t, src, res)
}

func TestContextMatchSrcClassLate(t *testing.T) {
	src, res := contextMatchFixture(t, 11, 400, 4, func(o *Options) {
		o.Inference = SrcClassInfer
		o.EarlyDisjuncts = false
	})
	assertContextCorrect(t, src, res)
}

func TestContextMatchTgtClassEarly(t *testing.T) {
	src, res := contextMatchFixture(t, 12, 400, 4, func(o *Options) {
		o.Inference = TgtClassInfer
		o.EarlyDisjuncts = true
	})
	assertContextCorrect(t, src, res)
}

func TestContextMatchNaiveQualTable(t *testing.T) {
	// NaiveInfer has no significance filter, so spurious views (e.g. on
	// the random StockStatus) can pass ω — the paper's motivation for
	// the classifier-based algorithms. Assert recall only: the correct
	// ItemType views must be among the selected matches.
	src, res := contextMatchFixture(t, 13, 400, 2, func(o *Options) {
		o.Inference = NaiveInfer
		o.EarlyDisjuncts = false
	})
	seenBook, seenMusic := false, false
	for _, m := range res.ContextualMatches() {
		attrs := m.Cond.Attrs()
		if len(attrs) != 1 || attrs[0] != "ItemType" {
			continue
		}
		if m.Target.Name == "book" && condCoversOnly(src, m.Cond, isBookLabel) {
			seenBook = true
		}
		if m.Target.Name == "music" &&
			condCoversOnly(src, m.Cond, func(v relational.Value) bool { return !isBookLabel(v) }) {
			seenMusic = true
		}
	}
	if !seenBook || !seenMusic {
		t.Errorf("NaiveInfer missed correct views: book=%v music=%v", seenBook, seenMusic)
	}
}

func TestContextMatchHugeOmegaRejectsAllViews(t *testing.T) {
	_, res := contextMatchFixture(t, 14, 300, 2, func(o *Options) {
		o.Omega = 1e6
	})
	if got := res.ContextualMatches(); len(got) != 0 {
		t.Errorf("ω=1e6 should reject all views, got %d contextual matches", len(got))
	}
	// Base matches must survive as the fallback.
	if len(res.Matches) == 0 {
		t.Error("base matches should stand when no view wins")
	}
}

func TestContextMatchDeterministicAcrossRuns(t *testing.T) {
	render := func(res *Result) []string {
		var out []string
		for _, m := range res.Matches {
			out = append(out, m.String())
		}
		return out
	}
	_, res1 := contextMatchFixture(t, 15, 300, 4, nil)
	_, res2 := contextMatchFixture(t, 15, 300, 4, nil)
	if !reflect.DeepEqual(render(res1), render(res2)) {
		t.Error("same seed should give identical results")
	}
}

func TestContextMatchElapsedAndStandardPopulated(t *testing.T) {
	_, res := contextMatchFixture(t, 16, 200, 2, nil)
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if len(res.Standard) == 0 {
		t.Error("Standard matches not recorded")
	}
	if len(res.Candidates) == 0 {
		t.Error("Candidates not recorded")
	}
	if len(res.Families) == 0 {
		t.Error("Families not recorded")
	}
}

func TestMultiTableSelectsPerAttribute(t *testing.T) {
	_, res := contextMatchFixture(t, 17, 300, 2, func(o *Options) {
		o.Selection = MultiTable
	})
	// MultiTable keeps at most one match per target attribute.
	seen := map[relational.AttrRef]int{}
	for _, m := range res.Matches {
		seen[relational.AttrRef{Table: m.Target.Name, Attr: m.TargetAttr}]++
	}
	for ref, n := range seen {
		if n > 1 {
			t.Errorf("MultiTable kept %d matches for %v", n, ref)
		}
	}
}

func TestQualTablePrefersBestSourceTable(t *testing.T) {
	// Two source tables: inv matches the book table well; junk is noise.
	rng := rand.New(rand.NewSource(18))
	inv, tgt := invFixture(rng, 300, 2)
	junk := relational.NewTable("junk",
		relational.Attribute{Name: "x", Type: relational.String},
	)
	for i := 0; i < 100; i++ {
		junk.Append(relational.Tuple{relational.S(mkTitle(rng, cdWords))})
	}
	src := relational.NewSchema("RS", inv, junk)
	opt := DefaultOptions()
	opt.Inference = SrcClassInfer
	res := mustContextMatch(t, src, tgt, opt)
	for _, m := range res.Matches {
		if m.Target.Name == "book" && m.Source.Root().Name == "junk" {
			t.Errorf("QualTable picked the junk table for book: %v", m)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if NaiveInfer.String() != "Naive" || SrcClassInfer.String() != "SrcClass" ||
		TgtClassInfer.String() != "TgtClass" {
		t.Error("Inference names wrong")
	}
	if QualTable.String() != "QualTable" || MultiTable.String() != "MultiTable" {
		t.Error("Selection names wrong")
	}
	if Inference(99).String() != "Inference(?)" || Selection(99).String() != "Selection(?)" {
		t.Error("unknown enum rendering wrong")
	}
}

func TestConjunctiveConditionDiscovery(t *testing.T) {
	// §3.5's example: the target is semantically non-fiction books; the
	// correct source condition is type=book AND fiction=0. Build data
	// where fiction/non-fiction books differ in a visible feature
	// (subject codes) so the second stage can find the refinement.
	rng := rand.New(rand.NewSource(19))
	src := relational.NewTable("inv",
		relational.Attribute{Name: "Title", Type: relational.Text},
		relational.Attribute{Name: "ItemType", Type: relational.String},
		relational.Attribute{Name: "Fiction", Type: relational.Int},
		relational.Attribute{Name: "Code", Type: relational.String},
	)
	// Fiction and non-fiction books carry visibly different catalog
	// codes, so the ItemType='book' view still mixes two populations and
	// leaves room for a second-stage refinement to improve matches.
	subject := func(fic int) string {
		if fic == 1 {
			b := []byte("fic/")
			for i := 0; i < 8; i++ {
				b = append(b, byte('a'+rng.Intn(26)))
			}
			return string(b)
		}
		return "QA-" + mkISBN(rng)
	}
	for i := 0; i < 400; i++ {
		switch i % 4 {
		case 0, 1: // books, half fiction
			fic := i % 2
			src.Append(relational.Tuple{
				relational.S(mkTitle(rng, bookWords)), relational.S("book"),
				relational.I(fic), relational.S(subject(fic)),
			})
		default: // cds
			src.Append(relational.Tuple{
				relational.S(mkTitle(rng, cdWords)), relational.S("cd"),
				relational.I(i % 2), relational.S(mkASIN(rng)),
			})
		}
	}
	nonfic := relational.NewTable("nonfiction_books",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "code", Type: relational.String},
	)
	for i := 0; i < 200; i++ {
		nonfic.Append(relational.Tuple{
			relational.S(mkTitle(rng, bookWords)),
			relational.S(subject(0)),
		})
	}
	tgt := relational.NewSchema("RT", nonfic)

	opt := DefaultOptions()
	opt.Inference = SrcClassInfer
	opt.MaxDepth = 2
	opt.Omega = 2
	res := mustContextMatch(t, relational.NewSchema("RS", src), tgt, opt)

	found := false
	for _, m := range res.Matches {
		if m.Cond != nil && len(m.Cond.Attrs()) == 2 { // a 2-condition (§2.2)
			attrs := m.Cond.Attrs()
			hasType, hasFic := false, false
			for _, a := range attrs {
				if a == "ItemType" {
					hasType = true
				}
				if a == "Fiction" {
					hasFic = true
				}
			}
			if hasType && hasFic {
				found = true
			}
		}
	}
	if !found {
		t.Error("no 2-condition over ItemType and Fiction found")
		for _, m := range res.Matches {
			t.Logf("  %v", m)
		}
	}
}
