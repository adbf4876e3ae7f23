package core

import (
	"context"
	"math/rand"
	"testing"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
)

// TestContextMatchTarget reverses the retail scenario: the combined
// table is now the TARGET, so the conditions belong on the target side
// (the separate book/music source tables match into the combined table
// under ItemType contexts).
func TestContextMatchTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	combined, separate := invFixture(rng, 400, 2)
	// Reversed: separate book/music tables are the source, the combined
	// inventory is the target.
	src := separate
	tgt := relational.NewSchema("RT", combined)

	opt := DefaultOptions()
	opt.Inference = SrcClassInfer
	res, err := ContextMatchTarget(context.Background(), src, tgt, opt)
	if err != nil {
		t.Fatalf("ContextMatchTarget: %v", err)
	}

	// The contextual matches of a reversed result: those whose target
	// side is a view.
	var ctx []match.Match
	for _, m := range res.Matches {
		if m.Target.IsView() {
			ctx = append(ctx, m)
		}
	}
	if len(ctx) == 0 {
		t.Fatal("no target contextual matches")
	}
	for _, m := range ctx {
		// The view must be on the target (combined) side…
		if !m.Target.IsView() || m.Target.Root() != combined {
			t.Errorf("target side is not a combined-table view: %v", m)
		}
		// …and the source must be one of the separate base tables.
		if m.Source.IsView() {
			t.Errorf("source side must be a base table: %v", m)
		}
		attrs := m.Cond.Attrs()
		if len(attrs) != 1 || attrs[0] != "ItemType" {
			t.Errorf("condition on wrong attribute: %v", m)
			continue
		}
		// A match from the book table must be conditioned on book labels.
		switch m.Source.Name {
		case "book":
			if !condCoversOnly(combined, m.Cond, isBookLabel) {
				t.Errorf("book-source match conditioned on CD labels: %v", m)
			}
		case "music":
			if !condCoversOnly(combined, m.Cond, func(v relational.Value) bool { return !isBookLabel(v) }) {
				t.Errorf("music-source match conditioned on book labels: %v", m)
			}
		}
	}
}

// TestUnswapInvolution checks the field swap is self-inverse.
func TestUnswapInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src, tgt := invFixture(rng, 50, 2)
	book := tgt.Table("book")
	orig := match.Match{
		Source: src, SourceAttr: "Title",
		Target: book, TargetAttr: "title",
		Cond:       relational.Eq{Attr: "ItemType", Value: relational.S("Book1")},
		Score:      0.8,
		Confidence: 0.9,
	}
	m := unswap(unswap(orig))
	if m.Source != src || m.Target != book || m.SourceAttr != "Title" ||
		m.TargetAttr != "title" || m.Score != 0.8 || m.Confidence != 0.9 {
		t.Errorf("unswap∘unswap changed the match: %+v", m)
	}
}
