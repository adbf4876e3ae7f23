package relational

import (
	"fmt"
	"slices"
	"strings"
)

// Attribute is a named, typed column of a table or view.
type Attribute struct {
	Name string
	Type Type
}

// Tuple is one row of an instance; index i holds the value of the i-th
// attribute of the owning table.
type Tuple []Value

// Table is a base table or a select-only view with its sample instance.
// The instance ("sample input" in §2.1) travels with the table because
// every algorithm in the paper is instance-based.
//
// A Table with a non-nil Cond is the view "select * from Base where
// Cond"; its Rows are the satisfying subset of the base sample, sharing
// the base table's attribute layout. Views of the projecting kind used in
// §4 (select Y from R where c) carry a Projection list.
type Table struct {
	Name  string
	Attrs []Attribute
	Rows  []Tuple

	// View fields; all nil/empty for base tables.
	Base       *Table    // base table the view selects from
	Cond       Condition // selection condition, nil means true
	Projection []string  // projected attribute names; empty means *
	// SelectedRows holds, for a select-only view, the indices into
	// Base.Rows of the rows satisfying Cond, in base order. Feature
	// layers use it to derive view column vectors from per-row
	// precomputes instead of re-tokenizing the sample per view.
	SelectedRows []int
}

// NewTable creates an empty base table.
func NewTable(name string, attrs ...Attribute) *Table {
	return &Table{Name: name, Attrs: attrs}
}

// IsView reports whether t is a view over a base table.
func (t *Table) IsView() bool { return t.Base != nil }

// Root returns the base table a view is (transitively) defined over, or t
// itself for a base table.
func (t *Table) Root() *Table {
	for t.Base != nil {
		t = t.Base
	}
	return t
}

// AttrIndex returns the position of the named attribute, or -1.
func (t *Table) AttrIndex(name string) int {
	for i, a := range t.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Attr returns the attribute with the given name.
func (t *Table) Attr(name string) (Attribute, bool) {
	if i := t.AttrIndex(name); i >= 0 {
		return t.Attrs[i], true
	}
	return Attribute{}, false
}

// Append adds a row. It panics if the arity is wrong, which always
// indicates a programming error in a generator or loader.
func (t *Table) Append(row Tuple) {
	if len(row) != len(t.Attrs) {
		panic(fmt.Sprintf("relational: row arity %d != table %s arity %d",
			len(row), t.Name, len(t.Attrs)))
	}
	t.Rows = append(t.Rows, row)
}

// Len returns the number of rows in the sample instance.
func (t *Table) Len() int { return len(t.Rows) }

// Column returns the bag of values v(R.a) for the named attribute
// ("select a from R" in §2.1). NULLs are included; callers that need
// non-NULL values filter themselves.
func (t *Table) Column(name string) []Value {
	i := t.AttrIndex(name)
	if i < 0 {
		return nil
	}
	out := make([]Value, 0, len(t.Rows))
	for _, r := range t.Rows {
		out = append(out, r[i])
	}
	return out
}

// Select materializes the select-only view "select * from t where c" over
// the current sample. The returned table records its provenance (Base,
// Cond) so constraint propagation (§4.2) can reason about it. The rows
// are shared sub-slices of the base rows, never copies: views are cheap,
// which matters because InferCandidateViews scores many of them.
func (t *Table) Select(name string, c Condition) *Table {
	v := &Table{
		Name:  name,
		Attrs: t.Attrs,
		Base:  t,
		Cond:  c,
	}
	for ri, row := range t.Rows {
		if c == nil || c.Eval(t, row) {
			v.Rows = append(v.Rows, row)
			v.SelectedRows = append(v.SelectedRows, ri)
		}
	}
	return v
}

// Project returns the view "select <names> from t where c". Used by the
// mapping layer (§4) where views project a subset of attributes.
func (t *Table) Project(name string, names []string, c Condition) (*Table, error) {
	idx := make([]int, len(names))
	attrs := make([]Attribute, len(names))
	for k, n := range names {
		i := t.AttrIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("relational: project: no attribute %q in %s", n, t.Name)
		}
		idx[k] = i
		attrs[k] = t.Attrs[i]
	}
	v := &Table{
		Name:       name,
		Attrs:      attrs,
		Base:       t,
		Cond:       c,
		Projection: append([]string(nil), names...),
	}
	for _, row := range t.Rows {
		if c != nil && !c.Eval(t, row) {
			continue
		}
		out := make(Tuple, len(idx))
		for k, i := range idx {
			out[k] = row[i]
		}
		v.Rows = append(v.Rows, out)
	}
	return v, nil
}

// Restrict returns a copy of t limited to the given row subset (by
// index). It is used by the train/test splitter.
func (t *Table) Restrict(rows []int) *Table {
	v := &Table{Name: t.Name, Attrs: t.Attrs, Base: t.Base, Cond: t.Cond}
	for _, i := range rows {
		v.Rows = append(v.Rows, t.Rows[i])
	}
	return v
}

// SQL renders the defining query of a view, or "select * from name" for a
// base table. Purely cosmetic; used in match output shown to the user.
func (t *Table) SQL() string {
	if !t.IsView() {
		return "select * from " + t.Name
	}
	cols := "*"
	if len(t.Projection) > 0 {
		cols = strings.Join(t.Projection, ", ")
	}
	s := fmt.Sprintf("select %s from %s", cols, t.Base.Name)
	if t.Cond != nil {
		s += " where " + t.Cond.String()
	}
	return s
}

// Schema is a named collection of tables (and views), ranged over by RS,
// RT in the paper.
type Schema struct {
	Name   string
	Tables []*Table
}

// NewSchema creates a schema holding the given tables.
func NewSchema(name string, tables ...*Table) *Schema {
	return &Schema{Name: name, Tables: tables}
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	for _, t := range s.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Add appends a table to the schema. It returns an error on a duplicate
// name, which would make attribute references ambiguous.
func (s *Schema) Add(t *Table) error {
	if s.Table(t.Name) != nil {
		return fmt.Errorf("relational: duplicate table %q in schema %s", t.Name, s.Name)
	}
	s.Tables = append(s.Tables, t)
	return nil
}

// TableNames returns the table names in declaration order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		out[i] = t.Name
	}
	return out
}

// AttrRef names one attribute of one table, the "R.a" of the paper.
type AttrRef struct {
	Table string
	Attr  string
}

// String renders the reference as "Table.Attr".
func (r AttrRef) String() string { return r.Table + "." + r.Attr }

// CategoricalOptions tunes categorical-attribute detection (§2.1).
type CategoricalOptions struct {
	// ValueFrac is the fraction of distinct values that must each be
	// "popular" for the attribute to count as categorical (paper: 10%).
	ValueFrac float64
	// TupleFrac is the fraction of tuples a value must cover to be
	// popular (paper: 1%).
	TupleFrac float64
	// MaxDistinct caps the number of distinct values; attributes beyond
	// the cap are never categorical. The paper implicitly relies on "low
	// cardinality" attributes; the cap keeps view enumeration bounded.
	MaxDistinct int
}

// DefaultCategoricalOptions are the thresholds given in §2.1.
func DefaultCategoricalOptions() CategoricalOptions {
	return CategoricalOptions{ValueFrac: 0.10, TupleFrac: 0.01, MaxDistinct: 64}
}

// IsCategorical implements the §2.1 test with the default options: an
// attribute is categorical if more than 10% of its values are associated
// with more than 1% of the tuples in the sample; with small samples, at
// least two values must each cover at least two tuples.
func (t *Table) IsCategorical(attr string) bool {
	return t.IsCategoricalOpt(attr, DefaultCategoricalOptions())
}

// IsCategoricalOpt is IsCategorical with explicit thresholds. Values
// key the count map directly (Value is comparable), so the scan walks
// the rows without building a column slice or rendering key strings.
func (t *Table) IsCategoricalOpt(attr string, opt CategoricalOptions) bool {
	i := t.AttrIndex(attr)
	if i < 0 || len(t.Rows) == 0 {
		return false
	}
	counts := map[Value]int{}
	for _, row := range t.Rows {
		v := row[i]
		if v.IsNull() {
			continue
		}
		counts[v.MapKey()]++
	}
	distinct := len(counts)
	if distinct < 2 {
		return false // a constant column partitions nothing
	}
	if opt.MaxDistinct > 0 && distinct > opt.MaxDistinct {
		return false
	}
	minTuples := float64(len(t.Rows)) * opt.TupleFrac
	if minTuples < 2 {
		minTuples = 2 // small-sample rule from §2.1
	}
	popular := 0
	for _, c := range counts {
		if float64(c) >= minTuples {
			popular++
		}
	}
	if float64(popular) <= float64(distinct)*opt.ValueFrac {
		return false
	}
	return popular >= 2
}

// CategoricalAttrs returns Cat(R): the names of categorical attributes.
func (t *Table) CategoricalAttrs() []string {
	return t.categoricalAttrs(DefaultCategoricalOptions())
}

func (t *Table) categoricalAttrs(opt CategoricalOptions) []string {
	var out []string
	for _, a := range t.Attrs {
		if t.IsCategoricalOpt(a.Name, opt) {
			out = append(out, a.Name)
		}
	}
	return out
}

// PartitionAttrs splits the attributes into Cat(R) and NonCat(R) in one
// pass over the sample, for callers (like ClusteredViewGen) that need
// both sides of the partition.
func (t *Table) PartitionAttrs() (cat, nonCat []string) {
	opt := DefaultCategoricalOptions()
	for _, a := range t.Attrs {
		if t.IsCategoricalOpt(a.Name, opt) {
			cat = append(cat, a.Name)
		} else {
			nonCat = append(nonCat, a.Name)
		}
	}
	return cat, nonCat
}

// DistinctValues returns the distinct non-NULL values of an attribute in
// ascending Value order (deterministic across runs).
func (t *Table) DistinctValues(attr string) []Value {
	i := t.AttrIndex(attr)
	if i < 0 {
		return nil
	}
	seen := map[Value]struct{}{}
	out := make([]Value, 0)
	for _, row := range t.Rows {
		v := row[i]
		if v.IsNull() {
			continue
		}
		k := v.MapKey()
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v)
	}
	slices.SortFunc(out, Value.Compare)
	return out
}

// ValueCounts returns the multiplicity of each distinct non-NULL value.
func (t *Table) ValueCounts(attr string) map[string]int {
	counts := map[string]int{}
	for _, v := range t.Column(attr) {
		if v.IsNull() {
			continue
		}
		counts[v.Key()]++
	}
	return counts
}
