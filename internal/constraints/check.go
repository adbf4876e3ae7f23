package constraints

import (
	"fmt"
	"strings"

	"ctxmatch/internal/relational"
)

// CheckKey reports whether the key holds on the table's sample instance.
// NULL-containing key tuples are skipped (SQL semantics: NULLs do not
// participate in uniqueness).
func CheckKey(t *relational.Table, k Key) bool {
	idx, ok := attrIndexes(t, k.Attrs)
	if !ok {
		return false
	}
	seen := map[string]bool{}
	for _, row := range t.Rows {
		key, hasNull := rowKey(row, idx)
		if hasNull {
			continue
		}
		if seen[key] {
			return false
		}
		seen[key] = true
	}
	return true
}

// CheckFK reports whether the foreign key holds between the two sample
// instances. Tuples with NULLs in the referencing attributes are exempt.
func CheckFK(from, to *relational.Table, f ForeignKey) bool {
	fi, ok := attrIndexes(from, f.FromAttrs)
	if !ok {
		return false
	}
	ti, ok := attrIndexes(to, f.ToAttrs)
	if !ok {
		return false
	}
	referenced := map[string]bool{}
	for _, row := range to.Rows {
		key, hasNull := rowKey(row, ti)
		if !hasNull {
			referenced[key] = true
		}
	}
	for _, row := range from.Rows {
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

func attrIndexes(t *relational.Table, attrs []string) ([]int, bool) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := t.AttrIndex(a)
		if j < 0 {
			return nil, false
		}
		idx[i] = j
	}
	return idx, true
}

func rowKey(row relational.Tuple, idx []int) (key string, hasNull bool) {
	var b strings.Builder
	for _, i := range idx {
		v := row[i]
		if v.IsNull() {
			return "", true
		}
		fmt.Fprintf(&b, "%s\x00", v.Key())
	}
	return b.String(), false
}
