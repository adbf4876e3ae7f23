package match

import (
	"math"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// NameMatcher scores attribute-name similarity ("similarity of schema and
// metadata information" in §1) using trigram Jaccard over the folded
// names. It ignores instance data entirely, so its score is invariant
// under view restriction.
type NameMatcher struct {
	W float64
}

// Name implements AttrMatcher.
func (NameMatcher) Name() string { return "name" }

// Weight implements AttrMatcher.
func (m NameMatcher) Weight() float64 { return m.W }

// Applicable implements AttrMatcher: names always exist.
func (NameMatcher) Applicable(*relational.Table, string, *relational.Table, string) bool {
	return true
}

// Score implements AttrMatcher. Name vectors are memoized in the cache,
// so repeated scoring of the same identifiers (every target attribute,
// every candidate view) tokenizes each name once.
func (NameMatcher) Score(cache *FeatureCache, _ *relational.Table, srcAttr string, _ *relational.Table, tgtAttr string) float64 {
	return tokenize.JaccardIDs(cache.NameVector(srcAttr), cache.NameVector(tgtAttr))
}

// ViewInvariant reports that name similarity ignores instance data:
// resolved pairs score it once instead of once per candidate view.
func (NameMatcher) ViewInvariant() bool { return true }

// ValueNGramMatcher is the instance-based matcher for string-domain
// attributes: cosine similarity of the aggregate 3-gram frequency
// vectors of the two columns. Non-string pairs score 0, leaving numbers
// to NumericMatcher.
type ValueNGramMatcher struct {
	W float64
}

// Name implements AttrMatcher.
func (ValueNGramMatcher) Name() string { return "value-ngram" }

// Weight implements AttrMatcher.
func (m ValueNGramMatcher) Weight() float64 { return m.W }

// Applicable implements AttrMatcher: both attributes must be string-like.
func (ValueNGramMatcher) Applicable(src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string) bool {
	sa, okS := src.Attr(srcAttr)
	ta, okT := tgt.Attr(tgtAttr)
	return okS && okT &&
		sa.Type.Domain() == relational.DomainString &&
		ta.Type.Domain() == relational.DomainString
}

// Score implements AttrMatcher. The cosine is squared: mixed-population
// columns (the ambiguous case contextual matching resolves) still share
// many grams with each target, and squaring stretches the gap between
// "half the column matches" and "all of the column matches". The cosine
// goes through the shared candidate index when one covers the target
// column (see FeatureCache.NGramCosine) — bit-identical to the pairwise
// merge walk.
func (m ValueNGramMatcher) Score(cache *FeatureCache, src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string) float64 {
	sa, ok := src.Attr(srcAttr)
	if !ok || sa.Type.Domain() != relational.DomainString {
		return 0
	}
	ta, ok := tgt.Attr(tgtAttr)
	if !ok || ta.Type.Domain() != relational.DomainString {
		return 0
	}
	c := cache.NGramCosine(src, srcAttr, tgt, tgtAttr)
	return c * c
}

// NumericMatcher compares the value distributions of two numeric-domain
// columns by histogram overlap: both columns are binned over their
// combined range and the score is Σ min(p_i, q_i) ∈ [0,1]. Identical
// distributions score near 1; a mixture column scores roughly the
// mixing fraction against each component — exactly the behaviour
// contextual matching exploits, since restricting the source to the
// right sub-population drives the overlap toward 1. Non-numeric pairs
// score 0.
type NumericMatcher struct {
	W float64
}

// histogramBins is NumericMatcher's histogram resolution.
const histogramBins = 16

// Name implements AttrMatcher.
func (NumericMatcher) Name() string { return "numeric" }

// Weight implements AttrMatcher.
func (m NumericMatcher) Weight() float64 { return m.W }

// Applicable implements AttrMatcher: both attributes must be numeric.
func (NumericMatcher) Applicable(src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string) bool {
	sa, okS := src.Attr(srcAttr)
	ta, okT := tgt.Attr(tgtAttr)
	return okS && okT &&
		sa.Type.Domain() == relational.DomainNumber &&
		ta.Type.Domain() == relational.DomainNumber
}

// Score implements AttrMatcher.
func (m NumericMatcher) Score(cache *FeatureCache, src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string) float64 {
	sa, ok := src.Attr(srcAttr)
	if !ok || sa.Type.Domain() != relational.DomainNumber {
		return 0
	}
	ta, ok := tgt.Attr(tgtAttr)
	if !ok || ta.Type.Domain() != relational.DomainNumber {
		return 0
	}
	xs := cache.Numeric(src, srcAttr)
	ys := cache.Numeric(tgt, tgtAttr)
	if len(xs) == 0 || len(ys) == 0 {
		return 0
	}
	// Combine the cached per-column ranges instead of rescanning both
	// columns: min-of-mins equals the concatenated scan bit-for-bit.
	loX, hiX := cache.NumericRange(src, srcAttr)
	loY, hiY := cache.NumericRange(tgt, tgtAttr)
	lo, hi := math.Min(loX, loY), math.Max(hiX, hiY)
	if hi == lo {
		return 1 // both columns are the same constant
	}
	// Histograms are memoized per (column, combined range): a candidate
	// view scored against many targets — or many views against the same
	// target — re-bins each side once per distinct range.
	hx := cache.Histogram(src, srcAttr, lo, hi)
	hy := cache.Histogram(tgt, tgtAttr, lo, hi)
	var overlap float64
	for i := range hx {
		overlap += math.Min(hx[i], hy[i])
	}
	return overlap
}

// TypeMatcher scores declared-type compatibility: 1 for identical types,
// 0.5 for distinct types in the same domain, 0 otherwise.
type TypeMatcher struct {
	W float64
}

// Name implements AttrMatcher.
func (TypeMatcher) Name() string { return "type" }

// Weight implements AttrMatcher.
func (m TypeMatcher) Weight() float64 { return m.W }

// Applicable implements AttrMatcher: declared types always exist.
func (TypeMatcher) Applicable(*relational.Table, string, *relational.Table, string) bool {
	return true
}

// ViewInvariant reports that declared-type compatibility ignores
// instance data: resolved pairs score it once instead of once per
// candidate view. Select-only views share their base table's declared
// attributes, so the score cannot differ across views.
func (TypeMatcher) ViewInvariant() bool { return true }

// Score implements AttrMatcher.
func (TypeMatcher) Score(_ *FeatureCache, src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string) float64 {
	sa, okS := src.Attr(srcAttr)
	ta, okT := tgt.Attr(tgtAttr)
	if !okS || !okT {
		return 0
	}
	switch {
	case sa.Type == ta.Type:
		return 1
	case sa.Type.Domain() == ta.Type.Domain():
		return 0.5
	default:
		return 0
	}
}
