package relational

import (
	"math/rand"
	"testing"
)

// invTable builds the paper's Figure 1(a) inventory sample.
func invTable() *Table {
	t := NewTable("inv",
		Attribute{"id", Int},
		Attribute{"name", Text},
		Attribute{"type", Int},
		Attribute{"instock", Bool},
		Attribute{"code", String},
		Attribute{"descr", String},
	)
	rows := []Tuple{
		{I(0), S("leaves of grass"), I(1), B(true), S("0195128"), S("hardcover")},
		{I(1), S("the white album"), I(2), B(true), S("B002UAX"), S("audio cd")},
		{I(2), S("heart of darkness"), I(1), B(false), S("0486611"), S("paperback")},
		{I(3), S("wasteland"), I(1), B(true), S("0393995"), S("paperback")},
		{I(4), S("hotel california"), I(2), B(false), S("B002GVO"), S("elektra cd")},
	}
	for _, r := range rows {
		t.Append(r)
	}
	return t
}

func TestTableBasics(t *testing.T) {
	inv := invTable()
	if inv.Len() != 5 {
		t.Fatalf("Len = %d, want 5", inv.Len())
	}
	if i := inv.AttrIndex("code"); i != 4 {
		t.Errorf("AttrIndex(code) = %d, want 4", i)
	}
	if i := inv.AttrIndex("nope"); i != -1 {
		t.Errorf("AttrIndex(nope) = %d, want -1", i)
	}
	a, ok := inv.Attr("name")
	if !ok || a.Type != Text {
		t.Errorf("Attr(name) = %v, %v", a, ok)
	}
	if got := inv.Rows[1][inv.AttrIndex("name")]; !got.Equal(S("the white album")) {
		t.Errorf("row 1 name = %v", got)
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong arity should panic")
		}
	}()
	invTable().Append(Tuple{I(9)})
}

func TestColumnIsBag(t *testing.T) {
	inv := invTable()
	col := inv.Column("type")
	if len(col) != 5 {
		t.Fatalf("Column(type) has %d values", len(col))
	}
	ones := 0
	for _, v := range col {
		if v.Equal(I(1)) {
			ones++
		}
	}
	if ones != 3 {
		t.Errorf("bag should keep duplicates: got %d ones, want 3", ones)
	}
	if inv.Column("missing") != nil {
		t.Error("Column of missing attr should be nil")
	}
}

func TestSelectView(t *testing.T) {
	inv := invTable()
	books := inv.Select("V1", Eq{Attr: "type", Value: I(1)})
	if books.Len() != 3 {
		t.Fatalf("books view has %d rows, want 3", books.Len())
	}
	if !books.IsView() || books.Root() != inv {
		t.Error("view provenance lost")
	}
	for _, row := range books.Rows {
		if !row[2].Equal(I(1)) {
			t.Errorf("row %v leaked into type=1 view", row)
		}
	}
	// Views share attribute layout with the base.
	if books.AttrIndex("code") != inv.AttrIndex("code") {
		t.Error("view attrs differ from base")
	}
	// nil condition selects everything.
	all := inv.Select("Vall", nil)
	if all.Len() != inv.Len() {
		t.Errorf("nil-condition view has %d rows", all.Len())
	}
}

func TestNestedViewRoot(t *testing.T) {
	inv := invTable()
	v1 := inv.Select("V1", Eq{Attr: "type", Value: I(1)})
	v2 := v1.Select("V2", Eq{Attr: "instock", Value: B(true)})
	if v2.Root() != inv {
		t.Error("Root should walk through nested views")
	}
	if v2.Len() != 2 {
		t.Errorf("nested view rows = %d, want 2 (leaves of grass, wasteland)", v2.Len())
	}
}

func TestProject(t *testing.T) {
	inv := invTable()
	v, err := inv.Project("V", []string{"id", "name"}, Eq{Attr: "type", Value: I(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Attrs) != 2 || v.Attrs[1].Name != "name" {
		t.Fatalf("projection attrs = %v", v.Attrs)
	}
	if v.Len() != 2 {
		t.Fatalf("projection rows = %d, want 2", v.Len())
	}
	if !v.Rows[0][1].Equal(S("the white album")) {
		t.Errorf("projected row = %v", v.Rows[0])
	}
	if _, err := inv.Project("V", []string{"nope"}, nil); err == nil {
		t.Error("projecting a missing attribute should error")
	}
}

func TestSQLRendering(t *testing.T) {
	inv := invTable()
	if got := inv.SQL(); got != "select * from inv" {
		t.Errorf("base SQL = %q", got)
	}
	v := inv.Select("V1", Eq{Attr: "type", Value: I(1)})
	if got := v.SQL(); got != "select * from inv where type = 1" {
		t.Errorf("view SQL = %q", got)
	}
	p, _ := inv.Project("V2", []string{"id", "name"}, Eq{Attr: "type", Value: I(2)})
	if got := p.SQL(); got != "select id, name from inv where type = 2" {
		t.Errorf("projection SQL = %q", got)
	}
}

func TestSchemaOperations(t *testing.T) {
	s := NewSchema("RS", invTable())
	if s.Table("inv") == nil {
		t.Fatal("Table(inv) not found")
	}
	if s.Table("nope") != nil {
		t.Fatal("Table(nope) should be nil")
	}
	if err := s.Add(NewTable("price")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(NewTable("inv")); err == nil {
		t.Error("duplicate table name should error")
	}
	names := s.TableNames()
	if len(names) != 2 || names[0] != "inv" || names[1] != "price" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestAttrRefString(t *testing.T) {
	r := AttrRef{Table: "inv", Attr: "name"}
	if r.String() != "inv.name" {
		t.Errorf("AttrRef.String() = %q", r.String())
	}
}

func TestIsCategorical(t *testing.T) {
	// 100 rows: type alternates over 2 values (categorical); id unique
	// (not categorical); constant column (not categorical).
	tab := NewTable("t",
		Attribute{"id", Int},
		Attribute{"type", Int},
		Attribute{"const", String},
	)
	for i := 0; i < 100; i++ {
		tab.Append(Tuple{I(i), I(i % 2), S("same")})
	}
	if !tab.IsCategorical("type") {
		t.Error("type should be categorical")
	}
	if tab.IsCategorical("id") {
		t.Error("unique id should not be categorical")
	}
	if tab.IsCategorical("const") {
		t.Error("constant column should not be categorical")
	}
	cats := tab.CategoricalAttrs()
	if len(cats) != 1 || cats[0] != "type" {
		t.Errorf("CategoricalAttrs = %v", cats)
	}
	if _, nonCats := tab.PartitionAttrs(); len(nonCats) != 2 {
		t.Errorf("non-categorical attributes = %v", nonCats)
	}
}

func TestIsCategoricalSmallSampleRule(t *testing.T) {
	// Five rows as in Figure 1(a): type has values {1:3, 2:2}; both
	// values cover >= 2 tuples, so type is categorical even though the
	// 1% rule is vacuous at this size.
	inv := invTable()
	if !inv.IsCategorical("type") {
		t.Error("type should be categorical on the small Figure 1 sample")
	}
	if inv.IsCategorical("name") {
		t.Error("name (all distinct) should not be categorical")
	}
}

func TestIsCategoricalMaxDistinctCap(t *testing.T) {
	tab := NewTable("t", Attribute{"l", Int})
	// 3 copies each of 100 distinct values: each value is popular with
	// the small-sample rule, but the cap excludes the attribute.
	for v := 0; v < 100; v++ {
		for c := 0; c < 3; c++ {
			tab.Append(Tuple{I(v)})
		}
	}
	opt := DefaultCategoricalOptions()
	if tab.IsCategoricalOpt("l", opt) {
		t.Error("100 distinct values exceeds the MaxDistinct cap")
	}
	opt.MaxDistinct = 0 // disable cap
	if !tab.IsCategoricalOpt("l", opt) {
		t.Error("without the cap the attribute is categorical")
	}
}

func TestDistinctValuesSortedAndDeduped(t *testing.T) {
	inv := invTable()
	vals := inv.DistinctValues("type")
	if len(vals) != 2 || !vals[0].Equal(I(1)) || !vals[1].Equal(I(2)) {
		t.Errorf("DistinctValues(type) = %v", vals)
	}
	counts := inv.ValueCounts("type")
	if counts[I(1).Key()] != 3 || counts[I(2).Key()] != 2 {
		t.Errorf("ValueCounts(type) = %v", counts)
	}
}

func TestRestrict(t *testing.T) {
	inv := invTable()
	r := inv.Restrict([]int{4, 0})
	if r.Len() != 2 || !r.Rows[0][0].Equal(I(4)) || !r.Rows[1][0].Equal(I(0)) {
		t.Errorf("Restrict rows wrong: %v", r.Rows)
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	inv := invTable()
	rng := rand.New(rand.NewSource(1))
	trainRows, testRows := SplitRows(inv.Len(), 0.6, rng)
	train, test := inv.Restrict(trainRows), inv.Restrict(testRows)
	if train.Len()+test.Len() != inv.Len() {
		t.Fatalf("split sizes %d+%d != %d", train.Len(), test.Len(), inv.Len())
	}
	if train.Len() == 0 || test.Len() == 0 {
		t.Fatal("both splits must be non-empty on a 5-row table")
	}
	seen := map[string]int{}
	for _, r := range train.Rows {
		seen[r[0].Key()]++
	}
	for _, r := range test.Rows {
		seen[r[0].Key()]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("row id %s appears %d times across splits", k, n)
		}
	}
}

func TestSplitExtremeFractionsStayNonEmpty(t *testing.T) {
	inv := invTable()
	rng := rand.New(rand.NewSource(2))
	if train, _ := SplitRows(inv.Len(), 0.0, rng); len(train) == 0 {
		t.Error("train forced to >=1 row")
	}
	if _, test := SplitRows(inv.Len(), 1.0, rng); len(test) == 0 {
		t.Error("test forced to >=1 row")
	}
}
