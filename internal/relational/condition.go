package relational

import (
	"fmt"
	"slices"
	"strings"
)

// Condition is the boolean selection condition attached to a contextual
// match (§2.2). The grammar covers everything the paper needs:
//
//	simple        a = v                  (1-condition)
//	disjunctive   a ∈ {v1,…,vk}          (disjunctive 1-condition)
//	conjunctive   c1 and c2              (k-conditions, §3.5)
//	or            c1 or c2
//	true          the constant TRUE      (standard matches)
//
// Conditions evaluate against a tuple of a specific table because
// attribute positions are table-relative.
type Condition interface {
	// Eval reports whether the condition holds for row of table t.
	Eval(t *Table, row Tuple) bool
	// Attrs returns the attribute names mentioned, without duplicates.
	// len(Attrs()) is k for a k-condition (§2.2).
	Attrs() []string
	// String renders SQL-ish text, e.g. `type = 1`.
	String() string
	// Equal reports semantic-syntactic equality with another condition.
	Equal(Condition) bool
}

// True is the constant TRUE condition of a standard match.
type True struct{}

// Eval always holds.
func (True) Eval(*Table, Tuple) bool { return true }

// Attrs mentions no attributes.
func (True) Attrs() []string { return nil }

// String renders "true".
func (True) String() string { return "true" }

// Equal reports whether other is also True.
func (True) Equal(other Condition) bool {
	_, ok := other.(True)
	return ok
}

// Eq is the simple condition a = v.
type Eq struct {
	Attr  string
	Value Value
}

// Eval reports whether the tuple's Attr equals Value.
func (e Eq) Eval(t *Table, row Tuple) bool {
	i := t.AttrIndex(e.Attr)
	if i < 0 {
		return false
	}
	return row[i].Equal(e.Value)
}

// Attrs returns the single mentioned attribute.
func (e Eq) Attrs() []string { return []string{e.Attr} }

// String renders `attr = value` with strings quoted.
func (e Eq) String() string {
	return fmt.Sprintf("%s = %s", e.Attr, quote(e.Value))
}

// Equal reports structural equality.
func (e Eq) Equal(other Condition) bool {
	o, ok := other.(Eq)
	return ok && o.Attr == e.Attr && o.Value.Equal(e.Value)
}

// In is the simple-disjunctive condition a ∈ {v1,…,vk} (§2.2).
type In struct {
	Attr   string
	Values []Value
}

// NewIn builds an In condition with the value set deduplicated and
// sorted, so that equal sets render and compare identically.
func NewIn(attr string, values ...Value) In {
	seen := map[string]Value{}
	for _, v := range values {
		seen[v.Key()] = v
	}
	out := make([]Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	slices.SortFunc(out, Value.Compare)
	return In{Attr: attr, Values: out}
}

// Eval reports whether the tuple's Attr is one of Values.
func (c In) Eval(t *Table, row Tuple) bool {
	i := t.AttrIndex(c.Attr)
	if i < 0 {
		return false
	}
	for _, v := range c.Values {
		if row[i].Equal(v) {
			return true
		}
	}
	return false
}

// Attrs returns the single mentioned attribute.
func (c In) Attrs() []string { return []string{c.Attr} }

// String renders `attr in (v1, v2)`.
func (c In) String() string {
	parts := make([]string, len(c.Values))
	for i, v := range c.Values {
		parts[i] = quote(v)
	}
	return fmt.Sprintf("%s in (%s)", c.Attr, strings.Join(parts, ", "))
}

// Equal reports set equality of the value lists over the same attribute.
func (c In) Equal(other Condition) bool {
	o, ok := other.(In)
	if !ok || o.Attr != c.Attr || len(o.Values) != len(c.Values) {
		return false
	}
	a, b := NewIn(c.Attr, c.Values...), NewIn(o.Attr, o.Values...)
	for i := range a.Values {
		if !a.Values[i].Equal(b.Values[i]) {
			return false
		}
	}
	return true
}

// And is the conjunction c1 and c2 … (§3.5).
type And struct {
	Conds []Condition
}

// NewAnd flattens nested conjunctions.
func NewAnd(conds ...Condition) And {
	var flat []Condition
	for _, c := range conds {
		if a, ok := c.(And); ok {
			flat = append(flat, a.Conds...)
			continue
		}
		flat = append(flat, c)
	}
	return And{Conds: flat}
}

// Eval holds when every conjunct holds.
func (c And) Eval(t *Table, row Tuple) bool {
	for _, sub := range c.Conds {
		if !sub.Eval(t, row) {
			return false
		}
	}
	return true
}

// Attrs returns the union of mentioned attributes.
func (c And) Attrs() []string { return unionAttrs(c.Conds) }

// String renders `c1 and c2`.
func (c And) String() string { return joinConds(c.Conds, " and ") }

// Equal compares conjunct lists pairwise after canonical string sort.
func (c And) Equal(other Condition) bool {
	o, ok := other.(And)
	return ok && condSetEqual(c.Conds, o.Conds)
}

// Or is the disjunction c1 or c2 … over arbitrary sub-conditions. For
// disjunctions over the same attribute prefer In, which the inference
// algorithms produce directly.
type Or struct {
	Conds []Condition
}

// NewOr flattens nested disjunctions.
func NewOr(conds ...Condition) Or {
	var flat []Condition
	for _, c := range conds {
		if o, ok := c.(Or); ok {
			flat = append(flat, o.Conds...)
			continue
		}
		flat = append(flat, c)
	}
	return Or{Conds: flat}
}

// Eval holds when any disjunct holds.
func (c Or) Eval(t *Table, row Tuple) bool {
	for _, sub := range c.Conds {
		if sub.Eval(t, row) {
			return true
		}
	}
	return false
}

// Attrs returns the union of mentioned attributes.
func (c Or) Attrs() []string { return unionAttrs(c.Conds) }

// String renders `c1 or c2`.
func (c Or) String() string { return joinConds(c.Conds, " or ") }

// Equal compares disjunct lists as sets.
func (c Or) Equal(other Condition) bool {
	o, ok := other.(Or)
	return ok && condSetEqual(c.Conds, o.Conds)
}

func unionAttrs(conds []Condition) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range conds {
		for _, a := range c.Attrs() {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

func joinConds(conds []Condition, sep string) string {
	if len(conds) == 0 {
		return "true"
	}
	parts := make([]string, len(conds))
	for i, c := range conds {
		s := c.String()
		switch c.(type) {
		case And, Or:
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

func condSetEqual(a, b []Condition) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = a[i].String()
		bs[i] = b[i].String()
	}
	slices.Sort(as)
	slices.Sort(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func quote(v Value) string {
	if v.IsString() {
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	}
	return v.String()
}
