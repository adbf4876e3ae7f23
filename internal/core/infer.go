package core

import (
	"slices"
	"strings"
	"sync/atomic"

	"ctxmatch/internal/classify"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
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
// across all per-table workers; nil builds the target's artifacts here,
// which the one-shot entry points rely on. proj, when non-nil, is the
// request's source tokenization keyed into the prepared target's
// dictionary; the target tagger classifies from it instead of
// re-tokenizing values. Every call derives its own RNG from opt.Seed,
// so concurrent per-table inference stays deterministic regardless of
// goroutine interleaving.
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
			fcls = updateTargetArtifacts(opt.engine(), nil, tgt, nil, true, 1).fcls
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

// targetClassifierTrainings counts target classifier-set builds — from
// nothing or by delta — process-wide, so tests can assert that
// prepared-target matching performs zero classifier training.
var targetClassifierTrainings atomic.Int64

// TargetClassifierTrainings returns how many times target classifiers
// have been trained in this process. Deltas of this counter verify the
// PreparedTarget contract: after PrepareTarget, matching must not train.
func TargetClassifierTrainings() int64 { return targetClassifierTrainings.Load() }

// frozenTargetClassifiers is the C_D^T infrastructure of Figure 7
// (createTargetClassifier) in compiled form: one frozen classifier per
// value domain D with a compatible target attribute, trained on every
// such attribute with the label "Table.attr" and indexed by
// relational.Domain. TgtClassInfer shares one set across all (h, l)
// pairs and every request against the prepared target, because target
// training is independent of the source. Tagging a value is a
// zero-allocation slice walk (classify.FrozenClassifier) returning a
// dense label index instead of a "Table.attr" string.
type frozenTargetClassifiers struct {
	byDomain [relational.DomainBool + 1]classify.FrozenClassifier
}

// compileTargetClassifiers builds the classifier set of feats' schema
// from a built feature layer. The string domain's Naive Bayes compiles
// from the layer's per-column gram counts — the instance evidence the
// standard matcher already gathered — so no value is tokenized again;
// the numeric and bool Gaussians train on the rows in schema order and
// freeze. feats must be a layer UpdateTargetFeatures built.
func compileTargetClassifiers(feats *match.TargetFeatures) *frozenTargetClassifiers {
	targetClassifierTrainings.Add(1)
	f := &frozenTargetClassifiers{}
	tgt := feats.Target()
	if tgt == nil {
		return f
	}
	var cols []classify.Column
	for _, t := range tgt.Tables {
		for _, a := range t.Attrs {
			if a.Type.Domain() != relational.DomainString {
				continue
			}
			c := classify.Column{Label: t.Name + "." + a.Name, Grams: feats.ColumnGrams(t, a.Name)}
			i := t.AttrIndex(a.Name)
			for _, row := range t.Rows {
				if !row[i].IsNull() {
					c.Values++
				}
			}
			cols = append(cols, c)
		}
	}
	if cols != nil {
		f.byDomain[relational.DomainString] = classify.CompileNaiveBayes(feats.Dict(), cols)
	}
	for _, dom := range []relational.Domain{relational.DomainNumber, relational.DomainBool} {
		if g := trainGaussian(tgt, dom); g != nil {
			f.byDomain[dom] = g.Freeze()
		}
	}
	return f
}

// trainGaussian trains the one-domain classifier C_D^T of Figure 7 for
// a numeric or bool domain over every compatible attribute of the
// target schema, in schema order; nil when no attribute is compatible.
func trainGaussian(tgt *relational.Schema, domain relational.Domain) *classify.Gaussian {
	var g *classify.Gaussian
	for _, rt := range tgt.Tables {
		for _, a := range rt.Attrs {
			if !a.Type.Compatible(domain) {
				continue
			}
			if g == nil {
				g = classify.NewGaussian()
			}
			tag := rt.Name + "." + a.Name
			i := rt.AttrIndex(a.Name)
			for _, row := range rt.Rows {
				if !row[i].IsNull() {
					g.Train(row[i], tag)
				}
			}
		}
	}
	return g
}

// domains counts the per-domain classifiers in the set (zero for nil).
func (f *frozenTargetClassifiers) domains() int {
	if f == nil {
		return 0
	}
	n := 0
	for _, c := range f.byDomain {
		if c != nil {
			n++
		}
	}
	return n
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
		cfg.factory = newTagger(updateTargetArtifacts(opt.engine(), nil, tgt, nil, true, 1).fcls, nil).factory
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
