package datagen

import (
	"fmt"
	"strings"
	"testing"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
)

func TestInventoryShape(t *testing.T) {
	cfg := DefaultInventoryConfig()
	ds := Inventory(cfg)
	src := ds.Source.Table("Inventory")
	if src == nil {
		t.Fatal("no Inventory table")
	}
	if src.Len() != cfg.Rows {
		t.Errorf("source rows = %d, want %d", src.Len(), cfg.Rows)
	}
	if len(ds.Target.Tables) != 2 {
		t.Fatalf("target tables = %v", ds.Target.TableNames())
	}
	for _, tt := range ds.Target.Tables {
		if tt.Len() != cfg.TargetRows {
			t.Errorf("target %s rows = %d, want %d", tt.Name, tt.Len(), cfg.TargetRows)
		}
	}
	// Five content attributes (title, creator, code, price, maker) ×
	// two sides; the format column exists only in the targets.
	if len(ds.Gold) != 10 {
		t.Errorf("gold pairs = %d, want 10", len(ds.Gold))
	}
	if src.AttrIndex("ItemFormat") >= 0 {
		t.Error("source must not carry a low-cardinality format column")
	}
}

func TestInventoryGammaControlsCardinality(t *testing.T) {
	for _, gamma := range []int{2, 4, 6, 10} {
		cfg := DefaultInventoryConfig()
		cfg.Gamma = gamma
		ds := Inventory(cfg)
		src := ds.Source.Table("Inventory")
		vals := src.DistinctValues("ItemType")
		if len(vals) != gamma {
			t.Errorf("γ=%d: %d distinct ItemType values (%v)", gamma, len(vals), vals)
		}
		books, cds := 0, 0
		for _, v := range vals {
			if ds.SideOf(v) == "book" {
				books++
			} else {
				cds++
			}
		}
		if books != gamma/2 || cds != gamma/2 {
			t.Errorf("γ=%d: %d book + %d cd labels", gamma, books, cds)
		}
	}
}

func TestInventoryOddGammaNormalized(t *testing.T) {
	cfg := DefaultInventoryConfig()
	cfg.Gamma = 3
	ds := Inventory(cfg)
	vals := ds.Source.Table("Inventory").DistinctValues("ItemType")
	if len(vals) != 4 {
		t.Errorf("odd γ should round up to 4, got %d", len(vals))
	}
}

func TestInventoryPopulationsSeparable(t *testing.T) {
	ds := Inventory(DefaultInventoryConfig())
	src := ds.Source.Table("Inventory")
	typeIdx := src.AttrIndex("ItemType")
	codeIdx := src.AttrIndex("Code")
	priceIdx := src.AttrIndex("ListPrice")
	for _, row := range src.Rows {
		side := ds.SideOf(row[typeIdx])
		code := row[codeIdx].Str()
		price, _ := row[priceIdx].Float()
		if side == "book" {
			if !strings.HasPrefix(code, "978-") {
				t.Fatalf("book row has non-ISBN code %q", code)
			}
			if price < 3 {
				t.Fatalf("book price %v out of range", price)
			}
		} else {
			if !strings.HasPrefix(code, "B00") {
				t.Fatalf("music row has non-ASIN code %q", code)
			}
		}
	}
	// Target tables keep a format column with side-specific vocabulary.
	book := ds.Target.Table("book")
	for _, v := range book.Column("binding") {
		if strings.Contains(v.Str(), "cd") || strings.Contains(v.Str(), "vinyl") {
			t.Fatalf("book target has music format %q", v.Str())
		}
	}
}

func TestInventoryCategoricalDetection(t *testing.T) {
	ds := Inventory(DefaultInventoryConfig())
	src := ds.Source.Table("Inventory")
	cats := src.CategoricalAttrs()
	want := map[string]bool{"ItemType": true, "StockStatus": true, "ItemFormat": true}
	for _, c := range cats {
		if !want[c] {
			t.Errorf("unexpected categorical attribute %q", c)
		}
	}
	hasItemType := false
	for _, c := range cats {
		if c == "ItemType" {
			hasItemType = true
		}
	}
	if !hasItemType {
		t.Error("ItemType must be categorical")
	}
}

func TestInventoryDeterministicBySeed(t *testing.T) {
	a := Inventory(DefaultInventoryConfig())
	b := Inventory(DefaultInventoryConfig())
	at, bt := a.Source.Table("Inventory"), b.Source.Table("Inventory")
	if at.Len() != bt.Len() {
		t.Fatal("lengths differ")
	}
	for i := range at.Rows {
		for j := range at.Rows[i] {
			av, bv := at.Rows[i][j], bt.Rows[i][j]
			if !av.Equal(bv) && !(av.IsNull() && bv.IsNull()) {
				t.Fatalf("row %d col %d: %v != %v", i, j, av, bv)
			}
		}
	}
	cfg := DefaultInventoryConfig()
	cfg.Seed = 99
	c := Inventory(cfg)
	same := true
	ct := c.Source.Table("Inventory")
	for i := range at.Rows {
		if !at.Rows[i][1].Equal(ct.Rows[i][1]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different data")
	}
}

func TestInventorySourceAndTargetValuesDiffer(t *testing.T) {
	ds := Inventory(DefaultInventoryConfig())
	src := ds.Source.Table("Inventory")
	book := ds.Target.Tables[0]
	srcTitles := map[string]bool{}
	for _, v := range src.Column("ItemName") {
		srcTitles[v.Str()] = true
	}
	overlap := 0
	for _, v := range book.Column(book.Attrs[0].Name) {
		if srcTitles[v.Str()] {
			overlap++
		}
	}
	// Titles come from a finite pool so some collisions are expected,
	// but the instances must not be copies.
	if overlap > book.Len()/2 {
		t.Errorf("target looks copied from source: %d/%d overlapping titles", overlap, book.Len())
	}
}

func TestInventoryTargetLayouts(t *testing.T) {
	for _, target := range AllTargets {
		cfg := DefaultInventoryConfig()
		cfg.Target = target
		ds := Inventory(cfg)
		if len(ds.Target.Tables) != 2 {
			t.Fatalf("%s: %d target tables", target, len(ds.Target.Tables))
		}
		for _, g := range ds.Gold {
			tt := ds.Target.Table(g.TargetTable)
			if tt == nil {
				t.Fatalf("%s: gold references missing table %s", target, g.TargetTable)
			}
			if tt.AttrIndex(g.TargetAttr) < 0 {
				t.Fatalf("%s: gold references missing attr %s.%s", target, g.TargetTable, g.TargetAttr)
			}
			if ds.Source.Table("Inventory").AttrIndex(g.SourceAttr) < 0 {
				t.Fatalf("%s: gold references missing source attr %s", target, g.SourceAttr)
			}
		}
	}
	// Unknown target falls back to Ryan's layout.
	cfg := DefaultInventoryConfig()
	cfg.Target = TargetSchema("Nope")
	ds := Inventory(cfg)
	if ds.Target.Table("book") == nil {
		t.Error("unknown target should fall back to Ryan layout")
	}
}

func TestInventoryCorrelatedAttrs(t *testing.T) {
	cfg := DefaultInventoryConfig()
	cfg.CorrelatedAttrs = 3
	cfg.Correlation = 0.9
	ds := Inventory(cfg)
	src := ds.Source.Table("Inventory")
	for c := 1; c <= 3; c++ {
		name := fmt.Sprintf("XCorr%d", c)
		idx := src.AttrIndex(name)
		if idx < 0 {
			t.Fatalf("missing %s", name)
		}
		typeIdx := src.AttrIndex("ItemType")
		agree := 0
		for _, row := range src.Rows {
			if row[idx].Equal(row[typeIdx]) {
				agree++
			}
		}
		frac := float64(agree) / float64(src.Len())
		// ρ=0.9 plus accidental agreement of the random fallback.
		if frac < 0.85 || frac > 1.0 {
			t.Errorf("%s agreement = %v, want ≈0.9+", name, frac)
		}
	}
	// Low correlation should agree rarely.
	cfg.Correlation = 0.1
	ds = Inventory(cfg)
	src = ds.Source.Table("Inventory")
	idx, typeIdx := src.AttrIndex("XCorr1"), src.AttrIndex("ItemType")
	agree := 0
	for _, row := range src.Rows {
		if row[idx].Equal(row[typeIdx]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(src.Len()); frac > 0.5 {
		t.Errorf("ρ=0.1 agreement = %v, too high", frac)
	}
}

func TestInventoryExtraAttrs(t *testing.T) {
	cfg := DefaultInventoryConfig()
	cfg.ExtraAttrs = 8
	ds := Inventory(cfg)
	src := ds.Source.Table("Inventory")
	for c := 1; c <= 8; c++ {
		if src.AttrIndex(fmt.Sprintf("XNoise%d", c)) < 0 {
			t.Fatalf("missing XNoise%d", c)
		}
	}
	for c := 1; c <= 2; c++ { // 8/4 = 2 extra categorical
		if src.AttrIndex(fmt.Sprintf("XCat%d", c)) < 0 {
			t.Fatalf("missing XCat%d", c)
		}
	}
	for _, tt := range ds.Target.Tables {
		for c := 1; c <= 8; c++ {
			if tt.AttrIndex(fmt.Sprintf("XTgt%d", c)) < 0 {
				t.Fatalf("target %s missing XTgt%d", tt.Name, c)
			}
		}
	}
}

func TestGradesShape(t *testing.T) {
	cfg := DefaultGradesConfig()
	ds := Grades(cfg)
	narrow := ds.Source.Table("grades_narrow")
	if narrow.Len() != cfg.Students*cfg.Exams {
		t.Errorf("narrow rows = %d, want %d", narrow.Len(), cfg.Students*cfg.Exams)
	}
	wide := ds.Target.Table("grades_wide")
	if wide.Len() != cfg.Students {
		t.Errorf("wide rows = %d, want %d", wide.Len(), cfg.Students)
	}
	if len(wide.Attrs) != cfg.Exams+1 {
		t.Errorf("wide attrs = %d, want %d", len(wide.Attrs), cfg.Exams+1)
	}
	if len(ds.Gold) != 2*cfg.Exams {
		t.Errorf("gold pairs = %d, want %d", len(ds.Gold), 2*cfg.Exams)
	}
	if !narrow.IsCategorical("examNum") {
		t.Error("examNum must be categorical")
	}
	if narrow.IsCategorical("name") {
		t.Error("name must not be categorical")
	}
}

func TestGradesExamMeans(t *testing.T) {
	ds := Grades(GradesConfig{Students: 400, Exams: 5, Sigma: 5, Seed: 2})
	narrow := ds.Source.Table("grades_narrow")
	for e := 0; e < 5; e++ {
		var sum float64
		n := 0
		for _, row := range narrow.Rows {
			if row[1].Equal(relational.I(e)) {
				g, _ := row[2].Float()
				sum += g
				n++
			}
		}
		mean := sum / float64(n)
		want := 40 + 10*float64(e)
		if mean < want-2 || mean > want+2 {
			t.Errorf("exam %d mean = %v, want ≈%v", e, mean, want)
		}
	}
}

func TestGradesUniqueNames(t *testing.T) {
	ds := Grades(GradesConfig{Students: 300, Exams: 2, Sigma: 10, Seed: 3})
	wide := ds.Target.Table("grades_wide")
	seen := map[string]bool{}
	for _, row := range wide.Rows {
		k := row[0].Str()
		if seen[k] {
			t.Fatalf("duplicate student name %q", k)
		}
		seen[k] = true
	}
}

func TestCondSide(t *testing.T) {
	ds := Inventory(DefaultInventoryConfig())
	src := ds.Source.Table("Inventory")
	bookCond := relational.NewIn("ItemType", relational.S("Book1"), relational.S("Book2"))
	if side, ok := ds.CondSide(src, bookCond); !ok || side != "book" {
		t.Errorf("book condition side = %q, %v", side, ok)
	}
	mixed := relational.NewIn("ItemType", relational.S("Book1"), relational.S("CD1"))
	if _, ok := ds.CondSide(src, mixed); ok {
		t.Error("mixed condition must have no side")
	}
	wrongAttr := relational.Eq{Attr: "StockStatus", Value: relational.S("Low")}
	if _, ok := ds.CondSide(src, wrongAttr); ok {
		t.Error("condition on non-context attribute must have no side")
	}
	empty := relational.Eq{Attr: "ItemType", Value: relational.S("Book99")}
	if _, ok := ds.CondSide(src, empty); ok {
		t.Error("condition selecting nothing must have no side")
	}
	if _, ok := ds.CondSide(src, nil); ok {
		t.Error("nil condition must have no side")
	}
}

func TestEvaluate(t *testing.T) {
	ds := Inventory(DefaultInventoryConfig())
	src := ds.Source.Table("Inventory")
	book := ds.Target.Table("book")
	bookCond := relational.NewIn("ItemType", relational.S("Book1"), relational.S("Book2"))
	view := src.Select("V", bookCond)

	correct := match.Match{Source: view, SourceAttr: "ItemName", Target: book,
		TargetAttr: "title", Cond: bookCond, Confidence: 0.9}
	wrongTarget := match.Match{Source: view, SourceAttr: "ItemName", Target: book,
		TargetAttr: "isbn", Cond: bookCond, Confidence: 0.9}
	baseEdge := match.Match{Source: src, SourceAttr: "ItemName", Target: book,
		TargetAttr: "title", Cond: relational.True{}, Confidence: 0.9}

	pr := ds.Evaluate([]match.Match{correct, wrongTarget, baseEdge})
	if pr.Precision != 0.5 {
		t.Errorf("precision = %v, want 0.5 (base edges ignored)", pr.Precision)
	}
	if pr.Recall != 1.0/10.0 {
		t.Errorf("recall = %v, want 1/10", pr.Recall)
	}
	// Duplicate hits on the same gold pair count once for recall.
	cond2 := relational.Eq{Attr: "ItemType", Value: relational.S("Book1")}
	view2 := src.Select("V2", cond2)
	dup := match.Match{Source: view2, SourceAttr: "ItemName", Target: book,
		TargetAttr: "title", Cond: cond2, Confidence: 0.9}
	pr = ds.Evaluate([]match.Match{correct, dup})
	if pr.Recall != 1.0/10.0 {
		t.Errorf("duplicate recall = %v, want 1/10", pr.Recall)
	}
	if pr.Precision != 1 {
		t.Errorf("duplicate precision = %v, want 1", pr.Precision)
	}
	// Empty selection.
	pr = ds.Evaluate(nil)
	if pr.Precision != 0 || pr.Recall != 0 {
		t.Errorf("empty evaluation = %+v", pr)
	}
}

func TestInventoryScale(t *testing.T) {
	base := Inventory(InventoryConfig{
		Rows: 40, TargetRows: 25, Gamma: 4, Target: Ryan, Seed: 3,
	})
	scaled := Inventory(InventoryConfig{
		Rows: 40, TargetRows: 25, Gamma: 4, Target: Ryan, Seed: 3, Scale: 4,
	})
	if got, want := len(scaled.Target.Tables), 8; got != want {
		t.Fatalf("scale 4 produced %d target tables, want %d", got, want)
	}
	rows := 0
	seen := map[string]bool{}
	for _, tt := range scaled.Target.Tables {
		if seen[tt.Name] {
			t.Fatalf("duplicate target table name %q", tt.Name)
		}
		seen[tt.Name] = true
		if tt.Len() != 25 {
			t.Errorf("table %s has %d rows, want 25", tt.Name, tt.Len())
		}
		rows += tt.Len()
	}
	if rows != 8*25 {
		t.Errorf("total target rows = %d, want %d", rows, 8*25)
	}
	// The base pair must be byte-identical to the unscaled run: scaled
	// fixtures extend the committed ones, never perturb them.
	for i, name := range []string{"book", "music"} {
		b, s := base.Target.Table(name), scaled.Target.Table(name)
		if b == nil || s == nil {
			t.Fatalf("pair table %q missing (base %v, scaled %v)", name, b, s)
		}
		if b.Len() != s.Len() {
			t.Fatalf("table %d rows differ: %d vs %d", i, b.Len(), s.Len())
		}
		for r := range b.Rows {
			for c := range b.Rows[r] {
				if b.Rows[r][c].Key() != s.Rows[r][c].Key() {
					t.Fatalf("%s row %d col %d differs between scaled and unscaled", name, r, c)
				}
			}
		}
	}
	// The gold standard still covers only the base pair.
	for _, g := range scaled.Gold {
		if g.TargetTable != "book" && g.TargetTable != "music" {
			t.Errorf("gold pair references scaled table %q", g.TargetTable)
		}
	}
}
