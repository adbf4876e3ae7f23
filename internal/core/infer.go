package core

import (
	"slices"
	"strings"
	"sync/atomic"

	"ctxmatch/internal/classify"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// Candidate is one candidate view condition produced by
// InferCandidateViews, with the family that motivated it (nil provenance
// for NaiveInfer).
type Candidate struct {
	Cond   relational.Condition
	Family *ViewFamily
}

// InferCandidateViews produces the set C of candidate view conditions for
// source table r (line 5 of Figure 5). matches is the output of
// StandardMatch; per the paper no conditions are returned when it is
// empty. The target schema is consulted only by TgtClassInfer.
func InferCandidateViews(r *relational.Table, tgt *relational.Schema, hasMatches bool, opt Options) []Candidate {
	return inferCandidateViews(r, tgt, hasMatches, opt, nil, nil)
}

// inferCandidateViews is InferCandidateViews with an optional pre-built
// frozen target classifier set. ContextMatch compiles fcls once per
// prepared target (or takes it from the target cache) and shares it
// across all per-table workers; nil trains and freezes fresh, which the
// one-shot entry points rely on. proj, when non-nil, is the request's
// source tokenization keyed into the prepared target's dictionary; the
// target tagger classifies from it instead of re-tokenizing values.
// Every call derives its own RNG from opt.Seed, so concurrent
// per-table inference stays deterministic regardless of goroutine
// interleaving.
func inferCandidateViews(r *relational.Table, tgt *relational.Schema, hasMatches bool, opt Options, fcls *frozenTargetClassifiers, proj *match.SourceProjection) []Candidate {
	if !hasMatches {
		return nil
	}
	rng := opt.rng()
	switch opt.Inference {
	case NaiveInfer:
		return naiveInfer(r, opt)
	case SrcClassInfer:
		return candidatesFromFamilies(clusteredViewGen(r, clusterConfig{
			threshold:      opt.SignificanceT,
			trainFrac:      opt.TrainFrac,
			earlyDisjuncts: opt.EarlyDisjuncts,
			factory:        srcClassifierFactory,
		}, rng))
	case TgtClassInfer:
		if fcls == nil {
			fcls = newTargetClassifiers(tgt, 1).freezeFresh()
		}
		tagger := newTagger(fcls, proj)
		return candidatesFromFamilies(clusteredViewGen(r, clusterConfig{
			threshold:      opt.SignificanceT,
			trainFrac:      opt.TrainFrac,
			earlyDisjuncts: opt.EarlyDisjuncts,
			factory:        tagger.factory,
		}, rng))
	default:
		return nil
	}
}

// naiveInfer implements §3.2.1: a view per value of every categorical
// attribute. Under EarlyDisjuncts it additionally enumerates the
// disjunctive (subset) conditions, whose number grows exponentially in
// the cardinality of the categorical attribute — the cost the paper's
// Figure 15 charts.
func naiveInfer(r *relational.Table, opt Options) []Candidate {
	var out []Candidate
	for _, l := range r.CategoricalAttrs() {
		values := r.DistinctValues(l)
		if len(values) < 2 {
			continue
		}
		if opt.EarlyDisjuncts && len(values) <= naiveDisjunctCap {
			// All non-empty proper subsets of the value set.
			for mask := 1; mask < (1<<len(values))-1; mask++ {
				var g ValueGroup
				for i, v := range values {
					if mask&(1<<i) != 0 {
						g = append(g, v)
					}
				}
				out = append(out, Candidate{Cond: g.Condition(l)})
			}
			continue
		}
		for _, v := range values {
			out = append(out, Candidate{Cond: relational.Eq{Attr: l, Value: v}})
		}
	}
	return dedupCandidates(out)
}

// naiveDisjunctCap bounds NaiveInfer's exponential subset enumeration;
// beyond this cardinality it degrades to simple conditions only.
const naiveDisjunctCap = 12

// candidatesFromFamilies expands every view of every family into a
// candidate condition, deduplicated.
func candidatesFromFamilies(fams []ViewFamily) []Candidate {
	var out []Candidate
	for i := range fams {
		f := &fams[i]
		for _, g := range f.Groups {
			out = append(out, Candidate{Cond: g.Condition(f.Attr), Family: f})
		}
	}
	return dedupCandidates(out)
}

func dedupCandidates(cands []Candidate) []Candidate {
	seen := map[string]bool{}
	type keyed struct {
		key string
		c   Candidate
	}
	all := make([]keyed, 0, len(cands))
	for _, c := range cands {
		key := c.Cond.String() // rendered once per candidate, reused by the sort
		if seen[key] {
			continue
		}
		seen[key] = true
		all = append(all, keyed{key, c})
	}
	slices.SortStableFunc(all, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := cands[:0]
	for _, k := range all {
		out = append(out, k.c)
	}
	return out
}

// srcClassifierFactory implements SrcClassInfer's Ch (§3.2.3): a Naive
// Bayes 3-gram classifier for text attributes, a Gaussian classifier for
// numeric attributes, trained directly on the source values of h. Group
// indices are adapted to the classify package's string labels via
// groupLabel/parseGroupLabel.
func srcClassifierFactory(s *split, h string, _ int) labelClassifier {
	a, _ := s.train.Attr(h)
	return &srcClassifier{cls: classify.ForType(a.Type)}
}

type srcClassifier struct {
	cls classify.Classifier
}

func (s *srcClassifier) Train(_ int, v relational.Value, g int) { s.cls.Train(v, groupLabel(g)) }
func (s *srcClassifier) Finish()                                {}
func (s *srcClassifier) Predict(_ int, v relational.Value) int {
	label, _ := s.cls.Classify(v)
	return parseGroupLabel(label)
}

// targetClassifiers is the C_D^T infrastructure of Figure 7
// (createTargetClassifier): one classifier per value domain D, trained on
// every compatible attribute of the target schema with the label
// "Table.attr". TgtClassInfer shares one instance across all (h, l)
// pairs because target training is independent of the source.
type targetClassifiers struct {
	byDomain map[relational.Domain]classify.Classifier

	// nbParts holds the per-table partial Naive Bayes classifiers the
	// merged DomainString classifier was assembled from, keyed by table
	// name (tables without a string attribute have no entry). A delta
	// update reuses untouched tables' partials verbatim and retrains
	// only the touched ones — the merge is exact (integer counts), so
	// the reassembled classifier equals a from-scratch one bit for bit.
	nbParts map[string]*classify.NaiveBayes
}

// targetClassifierTrainings counts classifier-set trainings — from
// nothing or by delta — process-wide, so tests can assert that
// prepared-target matching performs zero classifier training.
var targetClassifierTrainings atomic.Int64

// TargetClassifierTrainings returns how many times target classifiers
// have been trained in this process. Deltas of this counter verify the
// PreparedTarget contract: after PrepareTarget, matching must not train.
func TargetClassifierTrainings() int64 { return targetClassifierTrainings.Load() }

// classifierDomains lists the trainable domains in the canonical order
// every training and freezing loop walks, so the dictionary interning
// of frozen vocabularies is deterministic.
var classifierDomains = []relational.Domain{
	relational.DomainString, relational.DomainNumber, relational.DomainBool,
}

// newTargetClassifiers runs createTargetClassifier(D, RT) for every
// domain with at least one compatible target attribute: the update of
// an empty set, which trains everything.
func newTargetClassifiers(tgt *relational.Schema, workers int) *targetClassifiers {
	return (*targetClassifiers)(nil).update(tgt, nil, nil, workers)
}

// assemble publishes the fanned-out training results: string partials
// recorded by table name and merged in schema order, numeric domain
// classifiers stored when trained.
func (tc *targetClassifiers) assemble(tgt *relational.Schema, parts []*classify.NaiveBayes, numeric [2]classify.Classifier) {
	for i, t := range tgt.Tables {
		if parts[i] != nil {
			tc.nbParts[t.Name] = parts[i]
		}
	}
	if nb := classify.MergeNaiveBayes(parts...); nb != nil {
		tc.byDomain[relational.DomainString] = nb
	}
	for i, cls := range numeric {
		if cls != nil {
			tc.byDomain[classifierDomains[i+1]] = cls
		}
	}
}

// trainTableNB trains the string-domain Naive Bayes partial of one
// table — every string attribute, in attribute order, labeled
// "Table.attr" — or nil when the table has no string attribute.
func trainTableNB(rt *relational.Table) *classify.NaiveBayes {
	var nb *classify.NaiveBayes
	for _, a := range rt.Attrs {
		if !a.Type.Compatible(relational.DomainString) {
			continue
		}
		if nb == nil {
			nb = classify.NewNaiveBayes()
		}
		tag := rt.Name + "." + a.Name
		i := rt.AttrIndex(a.Name)
		for _, row := range rt.Rows {
			if !row[i].IsNull() {
				nb.Train(row[i], tag)
			}
		}
	}
	return nb
}

// update is the one training path of a classifier set. It derives the
// set of an updated schema from the receiver, retraining only what the
// delta touches: string partials of touched tables (untouched partials
// are reused and re-merged in updated-schema order — exact), and
// numeric domains only when some touched table (old or new side of the
// delta) has a compatible attribute, because the Gaussian's
// order-sensitive accumulator spans every table. Unaffected numeric
// classifiers are shared by reference; classifiers are immutable after
// training, so sharing is safe. A nil receiver trains every table and
// domain from nothing, and touched and affected are not consulted.
//
// The string domain trains as one Naive Bayes partial per table, merged
// exactly in schema order (labels are table-qualified, so per-label
// state never crosses partials and the merge reproduces a one-pass
// training bit for bit); the numeric domains train whole, in schema
// order. All trainings are independent of each other, so they fan
// across up to workers goroutines, and the assembled state is
// bit-identical at any worker count.
func (tc *targetClassifiers) update(updated *relational.Schema, touched func(*relational.Table) bool, affected func(relational.Domain) bool, workers int) *targetClassifiers {
	targetClassifierTrainings.Add(1)
	out := &targetClassifiers{
		byDomain: map[relational.Domain]classify.Classifier{},
		nbParts:  map[string]*classify.NaiveBayes{},
	}
	if updated == nil {
		return out
	}
	nTables := len(updated.Tables)
	parts := make([]*classify.NaiveBayes, nTables)
	var numeric [2]classify.Classifier
	match.ForEachIndex(nTables+len(numeric), workers, func(i int) {
		if i < nTables {
			if t := updated.Tables[i]; tc == nil || touched(t) {
				parts[i] = trainTableNB(t)
			} else {
				parts[i] = tc.nbParts[t.Name]
			}
		} else {
			dom := classifierDomains[i-nTables+1]
			if tc == nil || affected(dom) {
				numeric[i-nTables] = trainDomainClassifier(updated, dom)
			} else if cls, ok := tc.byDomain[dom]; ok {
				numeric[i-nTables] = cls
			}
		}
	})
	out.assemble(updated, parts, numeric)
	return out
}

// trainDomainClassifier trains the one-domain classifier C_D^T of
// Figure 7 over every compatible attribute of the target schema, in
// schema order; nil when no attribute is compatible.
func trainDomainClassifier(tgt *relational.Schema, domain relational.Domain) classify.Classifier {
	var cls classify.Classifier
	for _, rt := range tgt.Tables {
		for _, a := range rt.Attrs {
			if !a.Type.Compatible(domain) {
				continue
			}
			if cls == nil {
				if domain == relational.DomainString {
					cls = classify.NewNaiveBayes()
				} else {
					cls = classify.NewGaussian()
				}
			}
			tag := rt.Name + "." + a.Name
			i := rt.AttrIndex(a.Name)
			for _, row := range rt.Rows {
				if !row[i].IsNull() {
					cls.Train(row[i], tag)
				}
			}
		}
	}
	return cls
}

// domains returns how many per-domain classifiers were trained, for
// prepared-target introspection.
func (tc *targetClassifiers) domains() int {
	if tc == nil {
		return 0
	}
	return len(tc.byDomain)
}

// frozenTargetClassifiers is the compiled, immutable form of
// targetClassifiers: one frozen classifier per value domain, indexed by
// relational.Domain, safe to share across every per-table worker of
// every request against the prepared target. Tagging a value is a
// zero-allocation slice walk (classify.FrozenClassifier) returning a
// dense label index instead of a "Table.attr" string.
type frozenTargetClassifiers struct {
	byDomain [relational.DomainBool + 1]classify.FrozenClassifier
}

// freeze compiles every trained per-domain classifier, interning Naive
// Bayes vocabularies into d (which must still be building). Domains
// freeze in canonical order so vocabulary interning assigns the same
// IDs on every run.
func (tc *targetClassifiers) freeze(d *tokenize.Dict) *frozenTargetClassifiers {
	f := &frozenTargetClassifiers{}
	for _, dom := range classifierDomains {
		if cls, ok := tc.byDomain[dom]; ok {
			f.byDomain[dom] = classify.Freeze(cls, d)
		}
	}
	return f
}

// freezeFresh is freeze into a private dictionary, for one-shot callers
// with no prepared target.
func (tc *targetClassifiers) freezeFresh() *frozenTargetClassifiers {
	d := tokenize.NewDict()
	f := tc.freeze(d)
	d.Freeze()
	return f
}

// noTag marks a row whose domain has no target classifier (or an
// untrained one) — the live pipeline's "" tag.
const noTag = int32(-1)

// tgtTagger caches, per column, the target-attribute tag of every row —
// the C_D^T classification of Figure 7 — so each source column is
// classified exactly once per run instead of once per (h, l) attribute
// pair per merge-loop iteration. With a source projection keyed into
// the Naive Bayes classifier's own dictionary, string rows classify
// from their projected gram IDs (ClassifyIDs) instead of re-tokenizing
// the value — the same tags, bit for bit. Not safe for concurrent use;
// every inference call owns one.
type tgtTagger struct {
	fcls *frozenTargetClassifiers
	proj *match.SourceProjection
	tags map[tagKey][]int32
	ids  []uint32
}

type tagKey struct {
	t    *relational.Table
	attr string
}

func newTagger(fcls *frozenTargetClassifiers, proj *match.SourceProjection) *tgtTagger {
	return &tgtTagger{fcls: fcls, proj: proj, tags: map[tagKey][]int32{}}
}

// tagsFor returns the per-row tag indices of column h of t — one half
// of split s, whose rows are s.whole's rows at the given indices —
// computing them on first use.
func (tg *tgtTagger) tagsFor(s *split, t *relational.Table, rows []int, h string) []int32 {
	key := tagKey{t, h}
	if ts, ok := tg.tags[key]; ok {
		return ts
	}
	out := make([]int32, len(t.Rows))
	a, _ := t.Attr(h)
	fc := tg.fcls.byDomain[a.Type.Domain()]
	hi := t.AttrIndex(h)
	nb, baseRows, pc, projected := tg.projected(s.whole, h, fc)
	for ri, row := range t.Rows {
		out[ri] = noTag
		if fc == nil {
			continue
		}
		// NULL rows have no projected grams; they classify by value.
		var nonNull bool
		if projected {
			br := rows[ri]
			if baseRows != nil {
				br = baseRows[br]
			}
			tg.ids, nonNull = pc.Row(br, tg.ids)
		}
		var idx int
		var ok bool
		if nonNull {
			idx, ok = nb.ClassifyIDs(tg.ids)
		} else {
			idx, ok = fc.ClassifyIndex(row[hi])
		}
		if ok {
			out[ri] = int32(idx)
		}
	}
	tg.tags[key] = out
	return out
}

// projected resolves the tagger's source projection for column h of
// whole: the Naive Bayes classifier it can feed IDs to, the map from
// whole's rows to its base table's rows (nil when whole is the base
// table), and the projected column. ok is false — classify values —
// unless fc is a Naive Bayes classifier keyed in the projection's
// dictionary and whole is a base table or a select-only view over one
// whose column the projection covers.
func (tg *tgtTagger) projected(whole *relational.Table, h string, fc classify.FrozenClassifier) (nb *classify.FrozenNaiveBayes, baseRows []int, pc match.ProjectedColumn, ok bool) {
	if tg.proj == nil {
		return nil, nil, pc, false
	}
	if nb, ok = fc.(*classify.FrozenNaiveBayes); !ok || nb.Dict() != tg.proj.Dict() {
		return nil, nil, pc, false
	}
	base := whole
	if whole.IsView() {
		if whole.Base.IsView() || len(whole.Projection) > 0 || len(whole.SelectedRows) != len(whole.Rows) {
			return nil, nil, pc, false
		}
		base, baseRows = whole.Base, whole.SelectedRows
	}
	pc, ok = tg.proj.Column(base, h)
	return nb, baseRows, pc, ok
}

// factory builds the TgtClassInfer labelClassifier for attribute h: it
// tags each training row with its most similar target attribute,
// accumulates TBag(R.h, R.l) in dense slices and derives bestCAT
// (§3.2.4). Row tags come precomputed from the tagger.
func (tg *tgtTagger) factory(s *split, h string, groups int) labelClassifier {
	nTags := 1 // slot 0 is the no-classifier tag
	a, _ := s.train.Attr(h)
	if fc := tg.fcls.byDomain[a.Type.Domain()]; fc != nil {
		nTags += len(fc.Labels())
	}
	return &tgtClassifier{
		trainTags: tg.tagsFor(s, s.train, s.trainRows, h),
		testTags:  tg.tagsFor(s, s.test, s.testRows, h),
		nGroups:   groups,
		vFreq:     make([]int, groups),
		gFreq:     make([]int, nTags),
		tbag:      make([][]int, nTags),
	}
}

// tgtClassifier implements doTraining/doTesting for TgtClassInfer over
// dense tag and group indices: tbag[tag][group] counts co-occurrences,
// bestCAT[tag] is the §3.2.4 argmax of acc·prec, and prediction falls
// back to the majority group for tags unseen in training — exactly the
// live string-keyed pipeline, minus its map lookups and label parsing.
type tgtClassifier struct {
	trainTags, testTags []int32

	// tbag[tagIdx][group] counts pairs; tagIdx is the frozen label index
	// shifted by one so slot 0 holds the no-classifier tag. Rows are
	// allocated on a tag's first training pair, sized to the run's group
	// count; a nil row means the tag never appeared in training.
	nGroups int
	tbag    [][]int
	vFreq   []int
	gFreq   []int
	total   int

	bestCAT  []int
	majority int
}

// Train records the pair (tag(t.h), t.l) into TBag, addressing the tag
// by the training row index.
func (c *tgtClassifier) Train(row int, _ relational.Value, g int) {
	tag := int(c.trainTags[row]) + 1
	if c.tbag[tag] == nil {
		c.tbag[tag] = make([]int, c.nGroups)
	}
	c.tbag[tag][g]++
	c.vFreq[g]++
	c.gFreq[tag]++
	c.total++
}

// Finish computes bestCAT(g) = argmax_v acc(g,v)·prec(g,v) where
// acc(g,v)=P(g|v) and prec(g,v)=P(v|g), ties broken in favor of the more
// common v, then by smaller group index for determinism (group labels
// sort numerically).
func (c *tgtClassifier) Finish() {
	c.majority = -1
	if c.total > 0 {
		// total == 0 keeps majority at -1: vFreq is preallocated to the
		// group count, and an all-zero scan must not elect group 0 where
		// the grown-on-demand accumulator had nothing to scan.
		bestFreq := -1
		for v, n := range c.vFreq {
			if n > bestFreq {
				c.majority, bestFreq = v, n
			}
		}
	}
	c.bestCAT = make([]int, len(c.tbag))
	for tag, byV := range c.tbag {
		best, bestScore, bestN := -1, -1.0, -1
		for v, n := range byV {
			if n == 0 {
				continue
			}
			acc := float64(n) / float64(c.vFreq[v])    // P(g|v)
			prec := float64(n) / float64(c.gFreq[tag]) // P(v|g)
			score := acc * prec
			if score > bestScore || (score == bestScore && c.vFreq[v] > bestN) {
				best, bestScore, bestN = v, score, c.vFreq[v]
			}
		}
		c.bestCAT[tag] = best
	}
}

// Predict returns bestCAT(tag(t.h)) for the test row; a tag never seen
// in training falls back to the majority categorical value (the paper
// allows an arbitrary choice; majority is the deterministic one).
func (c *tgtClassifier) Predict(row int, _ relational.Value) int {
	tag := int(c.testTags[row]) + 1
	if c.gFreq[tag] > 0 {
		return c.bestCAT[tag]
	}
	return c.majority
}

// families is a convenience wrapper used by tests and the façade: it runs
// the configured inference and returns the raw view families (empty for
// NaiveInfer, which has none).
func families(r *relational.Table, tgt *relational.Schema, opt Options) []ViewFamily {
	rng := opt.rng()
	cfg := clusterConfig{
		threshold:      opt.SignificanceT,
		trainFrac:      opt.TrainFrac,
		earlyDisjuncts: opt.EarlyDisjuncts,
	}
	switch opt.Inference {
	case SrcClassInfer:
		cfg.factory = srcClassifierFactory
	case TgtClassInfer:
		cfg.factory = newTagger(newTargetClassifiers(tgt, 1).freezeFresh(), nil).factory
	default:
		return nil
	}
	return clusteredViewGen(r, cfg, rng)
}

// Families exposes the inferred well-clustered view families for
// diagnostics and experiments.
func Families(r *relational.Table, tgt *relational.Schema, opt Options) []ViewFamily {
	return families(r, tgt, opt)
}
