package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/stats"
)

// ValueGroup is one cell of a view family's partition of a categorical
// attribute's values: a singleton for a simple condition, larger after
// EarlyDisjuncts merging.
type ValueGroup []relational.Value

// Condition renders the group as a selection condition on attr: Eq for a
// singleton, In for a merged group.
func (g ValueGroup) Condition(attr string) relational.Condition {
	if len(g) == 1 {
		return relational.Eq{Attr: attr, Value: g[0]}
	}
	return relational.NewIn(attr, g...)
}

// ViewFamily is F = (R, l, {Vi}) of §3.2.2: a partition of R's tuples
// into views by the values of categorical attribute l. Groups holds one
// value set per view; the family is "well-clustered" when some
// non-categorical attribute h predicts the group significantly better
// than the naive baseline.
type ViewFamily struct {
	Table  *relational.Table
	Attr   string // the categorical attribute l
	Groups []ValueGroup
	// Evidence is the non-categorical attribute h whose classifier
	// certified the family.
	Evidence string
	// Significance is Φ((c-µ)/σ) from the §3.2.2 test.
	Significance float64
	// cachedKey memoizes key(); it travels with copies, so families that
	// flow through candidate lists and result merging render their
	// dedup key once.
	cachedKey string
}

// String renders the family compactly for diagnostics.
func (f ViewFamily) String() string {
	parts := make([]string, len(f.Groups))
	for i, g := range f.Groups {
		vs := make([]string, len(g))
		for j, v := range g {
			vs[j] = v.String()
		}
		parts[i] = "{" + strings.Join(vs, ",") + "}"
	}
	return fmt.Sprintf("family(%s.%s: %s by %s, sig %.3f)",
		f.Table.Name, f.Attr, strings.Join(parts, " "), f.Evidence, f.Significance)
}

// labelClassifier abstracts "the classifier Ch" of Figure 6: something
// that can be trained to predict a label (a categorical value group,
// addressed by its dense index) from the value of attribute h. Training
// and prediction rows are addressed by index into the training/test
// table handed to the factory, which lets implementations precompute
// per-row features once per run. SrcClassInfer and TgtClassInfer
// provide the two implementations of §3.2.3 and §3.2.4.
type labelClassifier interface {
	// Train consumes one training pair: row of the training table, its
	// h-value, and its group index.
	Train(row int, v relational.Value, group int)
	// Finish is called once after all training pairs, before Predict.
	Finish()
	// Predict returns a group index for a test-table row (negative when
	// the classifier cannot produce one).
	Predict(row int, v relational.Value) int
}

// split is one ClusteredViewGen input partitioned into its training and
// testing tables, with each half's rows also given as indices into the
// input table — which lets a classifier serve both halves from
// per-row work done once on the unsplit table.
type split struct {
	whole               *relational.Table
	train, test         *relational.Table
	trainRows, testRows []int
}

// classifierFactory builds a fresh labelClassifier for attribute h over
// the given train/test split; groups is the number of dense group
// indices Train/Predict will see, so implementations can size their
// accumulators up front. It is re-invoked on every (re)training pass of
// the merge loop.
type classifierFactory func(s *split, h string, groups int) labelClassifier

// clusterConfig carries the fixed parameters of ClusteredViewGen.
type clusterConfig struct {
	threshold      float64 // T, typically 0.95
	trainFrac      float64
	earlyDisjuncts bool
	factory        classifierFactory
}

// clusteredViewGen implements Algorithm ClusteredViewGen (Figure 6) for a
// single table, extended with the EarlyDisjuncts error-merging loop of
// §3.3 when cfg.earlyDisjuncts is set. It returns every view family whose
// classifier beat the naive baseline at significance T.
func clusteredViewGen(r *relational.Table, cfg clusterConfig, rng *rand.Rand) []ViewFamily {
	cat, nonCat := r.PartitionAttrs()
	if len(nonCat) == 0 || len(cat) == 0 || r.Len() < 4 {
		return nil
	}
	trainRows, testRows := relational.SplitRows(r.Len(), cfg.trainFrac, rng)
	s := &split{
		whole: r, train: r.Restrict(trainRows), test: r.Restrict(testRows),
		trainRows: trainRows, testRows: testRows,
	}
	train, test := s.train, s.test
	var out []ViewFamily
	for _, l := range cat {
		// The categorical profile of l — its distinct training values and
		// every row's index into them — is independent of h, so it is
		// resolved once here and every evidence attribute (and every
		// merge-loop iteration) reuses the dense indices instead of
		// re-hashing row values.
		values := train.DistinctValues(l)
		if len(values) < 2 {
			continue
		}
		trainVI := rowValueIndices(train, l, values)
		testVI := rowValueIndices(test, l, values)
		for _, h := range nonCat {
			if h == l {
				continue
			}
			out = append(out, evaluatePair(s, h, l, values, trainVI, testVI, cfg)...)
		}
	}
	return dedupFamilies(out)
}

// rowValueIndices maps every row of t to the index of its l-value in
// values, or -1 for NULLs and values outside the list (test rows whose
// value was unseen in training) — the rows trainAndTest skips.
func rowValueIndices(t *relational.Table, l string, values []relational.Value) []int {
	idx := make(map[relational.Value]int, len(values))
	for i, v := range values {
		idx[v.MapKey()] = i
	}
	li := t.AttrIndex(l)
	out := make([]int, len(t.Rows))
	for ri, row := range t.Rows {
		out[ri] = -1
		if v := row[li]; !v.IsNull() {
			if i, ok := idx[v.MapKey()]; ok {
				out[ri] = i
			}
		}
	}
	return out
}

// evaluatePair runs doTraining/doTesting for one (h, l) pair and, under
// EarlyDisjuncts, iterates the §3.3 merge loop. Each significant grouping
// yields one ViewFamily. Groups are manipulated as value-index sets and
// materialized into ValueGroups only when a family is emitted.
func evaluatePair(s *split, h, l string, values []relational.Value, trainVI, testVI []int, cfg clusterConfig) []ViewFamily {
	// groups starts as the singleton partition; the merge loop coarsens it.
	groups := make([][]int, len(values))
	for i := range values {
		groups[i] = []int{i}
	}

	var out []ViewFamily
	for {
		res := trainAndTest(s, h, groups, len(values), trainVI, testVI, cfg.factory)
		if res.ntest == 0 {
			return out
		}
		sig := stats.SignificanceAgainstNaive(res.correct, res.ntest, res.naiveP)
		if sig > cfg.threshold {
			out = append(out, ViewFamily{
				Table:        s.whole,
				Attr:         l,
				Groups:       materializeGroups(groups, values),
				Evidence:     h,
				Significance: sig,
			})
		}
		if !cfg.earlyDisjuncts {
			return out
		}
		// §3.3: find the most frequent error pair (normalized for group
		// frequency) and merge it; stop when error-free or fully merged.
		if len(groups) <= 2 || len(res.errors) == 0 {
			return out
		}
		i, j := res.topErrorPair()
		if i < 0 {
			return out
		}
		merged := append(slices.Clone(groups[i]), groups[j]...)
		var next [][]int
		for k, g := range groups {
			if k != i && k != j {
				next = append(next, g)
			}
		}
		groups = append(next, merged)
	}
}

// materializeGroups converts value-index groups back into ValueGroups,
// preserving the index order within each group — the same order the
// Value-slice merge loop produced before groups went index-based.
func materializeGroups(groups [][]int, values []relational.Value) []ValueGroup {
	out := make([]ValueGroup, len(groups))
	for gi, g := range groups {
		vg := make(ValueGroup, len(g))
		for i, vi := range g {
			vg[i] = values[vi]
		}
		out[gi] = vg
	}
	return out
}

// testResult aggregates one doTesting pass.
type testResult struct {
	correct int
	ntest   int
	naiveP  float64
	// errors counts mistakes between group pairs; the key has the lower
	// index first because false positives and negatives are not
	// distinguished (§3.3).
	errors map[[2]int]int
	// freq is each group's frequency in the test data, used to normalize
	// error counts before choosing what to merge.
	freq []int
}

// topErrorPair returns the group index pair with the highest normalized
// error count, or (-1,-1) when there are no errors.
func (r *testResult) topErrorPair() (int, int) {
	type scored struct {
		pair [2]int
		norm float64
	}
	var all []scored
	for pair, n := range r.errors {
		denom := float64(r.freq[pair[0]] + r.freq[pair[1]])
		if denom == 0 {
			denom = 1
		}
		all = append(all, scored{pair, float64(n) / denom})
	}
	if len(all) == 0 {
		return -1, -1
	}
	slices.SortFunc(all, func(a, b scored) int {
		if a.norm != b.norm {
			return cmp.Compare(b.norm, a.norm)
		}
		if a.pair[0] != b.pair[0] {
			return cmp.Compare(a.pair[0], b.pair[0])
		}
		return cmp.Compare(a.pair[1], b.pair[1])
	})
	return all[0].pair[0], all[0].pair[1]
}

// trainAndTest performs doTraining and doTesting of Figure 6 for the
// given grouping of l's values (as value-index sets over nValues
// distinct values). Group indices serve as classification labels.
// Tuples whose l value was unseen in training are skipped, as are NULLs
// — both carry index -1 in the precomputed trainVI/testVI row maps, so
// the per-row label resolution is two array reads and hashes nothing.
func trainAndTest(s *split, h string, groups [][]int, nValues int, trainVI, testVI []int, factory classifierFactory) testResult {
	train, test := s.train, s.test
	groupOf := make([]int, nValues)
	for gi, g := range groups {
		for _, vi := range g {
			groupOf[vi] = gi
		}
	}
	cls := factory(s, h, len(groups))
	// The CNaive baseline of §3.2.2 reduces to counting group frequencies:
	// its success probability is the majority group's training share.
	naiveCounts := make([]int, len(groups))
	trained := 0

	hi := train.AttrIndex(h)
	for ri, row := range train.Rows {
		vi := trainVI[ri]
		if vi < 0 {
			continue
		}
		gi := groupOf[vi]
		cls.Train(ri, row[hi], gi)
		naiveCounts[gi]++
		trained++
	}
	cls.Finish()

	res := testResult{
		errors: map[[2]int]int{},
		freq:   make([]int, len(groups)),
	}
	if trained > 0 {
		best := 0
		for _, n := range naiveCounts {
			if n > best {
				best = n
			}
		}
		res.naiveP = float64(best) / float64(trained)
	}
	hi = test.AttrIndex(h)
	for ri, row := range test.Rows {
		vi := testVI[ri]
		if vi < 0 {
			continue
		}
		want := groupOf[vi]
		res.ntest++
		res.freq[want]++
		got := cls.Predict(ri, row[hi])
		if got == want {
			res.correct++
			continue
		}
		if got < 0 {
			got = want + 1 // count unpredictable rows as generic errors
			if got >= len(groups) {
				got = want - 1
			}
		}
		key := [2]int{want, got}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		res.errors[key]++
	}
	return res
}

func groupLabel(i int) string { return fmt.Sprintf("g%04d", i) }

func parseGroupLabel(s string) int {
	if len(s) != 5 || s[0] != 'g' {
		return -1
	}
	n := 0
	for _, c := range s[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// dedupFamilies collapses families with identical (table, attr, groups),
// keeping the highest significance. Different evidence attributes h often
// certify the same partition; the user needs it only once. Keys are
// rendered once per family, not once per comparison.
func dedupFamilies(fams []ViewFamily) []ViewFamily {
	bestByKey := map[string]int{}
	var out []ViewFamily
	var keys []string
	for fi := range fams {
		key := fams[fi].key() // cached in the element, and in every copy of it
		if i, ok := bestByKey[key]; ok {
			if fams[fi].Significance > out[i].Significance {
				out[i] = fams[fi]
			}
			continue
		}
		bestByKey[key] = len(out)
		out = append(out, fams[fi])
		keys = append(keys, key)
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if out[a].Attr != out[b].Attr {
			return strings.Compare(out[a].Attr, out[b].Attr)
		}
		return strings.Compare(keys[a], keys[b])
	})
	sorted := make([]ViewFamily, len(out))
	for i, j := range order {
		sorted[i] = out[j]
	}
	return sorted
}

// key renders the family's identity for deduplication, memoized on
// first use.
func (f *ViewFamily) key() string {
	if f.cachedKey != "" {
		return f.cachedKey
	}
	parts := make([]string, len(f.Groups))
	for i, g := range f.Groups {
		vs := make([]string, len(g))
		for j, v := range g {
			vs[j] = v.Key()
		}
		slices.Sort(vs)
		parts[i] = strings.Join(vs, ",")
	}
	slices.Sort(parts)
	f.cachedKey = f.Table.Name + "\x00" + f.Attr + "\x00" + strings.Join(parts, "|")
	return f.cachedKey
}
