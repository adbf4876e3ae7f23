package relational

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrueCondition(t *testing.T) {
	inv := invTable()
	c := True{}
	for _, row := range inv.Rows {
		if !c.Eval(inv, row) {
			t.Fatal("True must hold on every row")
		}
	}
	if len(c.Attrs()) != 0 || c.String() != "true" {
		t.Errorf("True Attrs/String wrong: %v %q", c.Attrs(), c.String())
	}
	if !c.Equal(True{}) || c.Equal(Eq{Attr: "a", Value: I(1)}) {
		t.Error("True equality wrong")
	}
}

func TestEqCondition(t *testing.T) {
	inv := invTable()
	c := Eq{Attr: "type", Value: I(1)}
	n := 0
	for _, row := range inv.Rows {
		if c.Eval(inv, row) {
			n++
		}
	}
	if n != 3 {
		t.Errorf("type=1 selects %d rows, want 3", n)
	}
	if got := c.String(); got != "type = 1" {
		t.Errorf("String = %q", got)
	}
	sc := Eq{Attr: "descr", Value: S("audio cd")}
	if got := sc.String(); got != "descr = 'audio cd'" {
		t.Errorf("string String = %q", got)
	}
	if len(c.Attrs()) != 1 {
		t.Error("Eq is a 1-condition")
	}
	missing := Eq{Attr: "zzz", Value: I(1)}
	if missing.Eval(inv, inv.Rows[0]) {
		t.Error("condition on missing attribute must be false")
	}
}

func TestEqQuoteEscaping(t *testing.T) {
	c := Eq{Attr: "a", Value: S("o'brien")}
	if got := c.String(); got != "a = 'o''brien'" {
		t.Errorf("quote escaping: %q", got)
	}
}

func TestInCondition(t *testing.T) {
	inv := invTable()
	c := NewIn("type", I(2), I(1), I(2)) // dedup + sort
	if len(c.Values) != 2 || !c.Values[0].Equal(I(1)) {
		t.Fatalf("NewIn dedup/sort failed: %v", c.Values)
	}
	for _, row := range inv.Rows {
		if !c.Eval(inv, row) {
			t.Error("type in (1,2) should cover all rows")
		}
	}
	narrow := NewIn("type", I(2))
	n := 0
	for _, row := range inv.Rows {
		if narrow.Eval(inv, row) {
			n++
		}
	}
	if n != 2 {
		t.Errorf("type in (2) selects %d rows, want 2", n)
	}
	if got := c.String(); got != "type in (1, 2)" {
		t.Errorf("String = %q", got)
	}
}

func TestInEqualIsSetEquality(t *testing.T) {
	a := NewIn("l", S("x"), S("y"))
	b := NewIn("l", S("y"), S("x"))
	if !a.Equal(b) {
		t.Error("In equality must ignore order")
	}
	cnd := NewIn("l", S("x"))
	if a.Equal(cnd) {
		t.Error("different sets must not be equal")
	}
	other := NewIn("m", S("x"), S("y"))
	if a.Equal(other) {
		t.Error("different attributes must not be equal")
	}
}

func TestAndOrConditions(t *testing.T) {
	inv := invTable()
	and := NewAnd(Eq{Attr: "type", Value: I(1)}, Eq{Attr: "instock", Value: B(true)})
	n := 0
	for _, row := range inv.Rows {
		if and.Eval(inv, row) {
			n++
		}
	}
	if n != 2 {
		t.Errorf("type=1 and instock selects %d rows, want 2", n)
	}
	if n := len(and.Attrs()); n != 2 {
		t.Errorf("and mentions %d attributes, want 2", n)
	}
	or := NewOr(Eq{Attr: "type", Value: I(2)}, Eq{Attr: "descr", Value: S("hardcover")})
	n = 0
	for _, row := range inv.Rows {
		if or.Eval(inv, row) {
			n++
		}
	}
	if n != 3 {
		t.Errorf("or selects %d rows, want 3", n)
	}
}

func TestAndOrFlattening(t *testing.T) {
	inner := NewAnd(Eq{Attr: "a", Value: I(1)}, Eq{Attr: "b", Value: I(2)})
	outer := NewAnd(inner, Eq{Attr: "c", Value: I(3)})
	if len(outer.Conds) != 3 {
		t.Errorf("nested And not flattened: %d conjuncts", len(outer.Conds))
	}
	innerOr := NewOr(Eq{Attr: "a", Value: I(1)}, Eq{Attr: "b", Value: I(2)})
	outerOr := NewOr(innerOr, Eq{Attr: "c", Value: I(3)})
	if len(outerOr.Conds) != 3 {
		t.Errorf("nested Or not flattened: %d disjuncts", len(outerOr.Conds))
	}
}

func TestAndEqualIgnoresOrder(t *testing.T) {
	a := NewAnd(Eq{Attr: "x", Value: I(1)}, Eq{Attr: "y", Value: I(2)})
	b := NewAnd(Eq{Attr: "y", Value: I(2)}, Eq{Attr: "x", Value: I(1)})
	if !a.Equal(b) {
		t.Error("And equality must ignore conjunct order")
	}
	c := NewAnd(Eq{Attr: "x", Value: I(1)})
	if a.Equal(c) {
		t.Error("different conjunct sets must differ")
	}
}

func TestAttrsDeduplicated(t *testing.T) {
	c := NewAnd(Eq{Attr: "x", Value: I(1)}, NewIn("x", I(2), I(3)), Eq{Attr: "y", Value: I(4)})
	attrs := c.Attrs()
	if len(attrs) != 2 {
		t.Errorf("Attrs = %v, want deduplicated {x,y}", attrs)
	}
}

func TestConditionStringNesting(t *testing.T) {
	c := NewOr(
		NewAnd(Eq{Attr: "a", Value: I(1)}, Eq{Attr: "b", Value: I(2)}),
		Eq{Attr: "c", Value: I(3)},
	)
	want := "(a = 1 and b = 2) or c = 3"
	if got := c.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if empty := (And{}).String(); empty != "true" {
		t.Errorf("empty And renders %q", empty)
	}
}

// Property: for every generated row, In(attr, vs...) is equivalent to the
// disjunction of Eq conditions over the same values (De Morgan sanity).
func TestInEquivalentToOrOfEqProperty(t *testing.T) {
	tab := NewTable("t", Attribute{"l", Int})
	f := func(rowVal int8, vals []int8) bool {
		row := Tuple{I(int(rowVal))}
		var eqs []Condition
		var vv []Value
		for _, v := range vals {
			vv = append(vv, I(int(v)))
			eqs = append(eqs, Eq{Attr: "l", Value: I(int(v))})
		}
		in := NewIn("l", vv...)
		or := NewOr(eqs...)
		return in.Eval(tab, row) == or.Eval(tab, row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a view's rows are exactly the rows satisfying its condition.
func TestSelectMatchesEvalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := NewTable("t", Attribute{"l", Int}, Attribute{"x", Int})
	for i := 0; i < 200; i++ {
		tab.Append(Tuple{I(rng.Intn(5)), I(rng.Intn(100))})
	}
	for v := 0; v < 5; v++ {
		c := Eq{Attr: "l", Value: I(v)}
		view := tab.Select("V", c)
		want := 0
		for _, row := range tab.Rows {
			if c.Eval(tab, row) {
				want++
			}
		}
		if view.Len() != want {
			t.Errorf("view for l=%d has %d rows, want %d", v, view.Len(), want)
		}
		for _, row := range view.Rows {
			if !c.Eval(tab, row) {
				t.Errorf("row %v violates view condition", row)
			}
		}
	}
}
