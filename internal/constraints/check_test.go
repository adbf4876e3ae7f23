package constraints

import "ctxmatch/internal/relational"

// CheckCFK reports whether the contextual foreign key holds: every tuple
// of the view finds a tuple of the referenced table matching on the key
// attributes with ToAttr equal to the pinned CondValue. The tests check
// Example 4.1's and the propagated contextual foreign keys against the
// data with it; propagation itself never needs it.
func CheckCFK(view, to *relational.Table, c ContextualForeignKey) bool {
	fi, ok := attrIndexes(view, c.FromAttrs)
	if !ok {
		return false
	}
	ti, ok := attrIndexes(to, c.ToAttrs)
	if !ok {
		return false
	}
	bi := to.AttrIndex(c.ToAttr)
	if bi < 0 {
		return false
	}
	referenced := map[string]bool{}
	for _, row := range to.Rows {
		if !row[bi].Equal(c.CondValue) {
			continue
		}
		key, hasNull := rowKey(row, ti)
		if !hasNull {
			referenced[key] = true
		}
	}
	for _, row := range view.Rows {
		key, hasNull := rowKey(row, fi)
		if hasNull {
			continue
		}
		if !referenced[key] {
			return false
		}
	}
	return true
}
