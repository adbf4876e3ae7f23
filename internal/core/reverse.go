package core

import (
	"context"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
)

// ContextMatchTarget finds target contextual matches: conditions on the
// target tables instead of the source. Per §3, "it is generally
// straightforward to reverse the role of source and target tables to
// discover matches involving conditions on the target table" — and §3.2.4
// notes the same reversal applies to TgtClassInfer. The implementation
// runs ContextMatch with the schemas swapped and then un-swaps each
// match, so a returned match reads source attribute → target attribute
// with Cond holding on the *target* view (the match's Target field is
// the conditioned target view). Context, error and parallelism semantics
// are ContextMatch's, with the roles of the schemas reversed (a
// TableError names a table of tgt).
func ContextMatchTarget(ctx context.Context, src, tgt *relational.Schema, opt Options) (*Result, error) {
	// Validate in the caller's orientation before swapping, so an
	// ErrEmptySchema message blames the side the caller passed.
	if err := validateSchemas(src, tgt); err != nil {
		return nil, err
	}
	rev, err := ContextMatch(ctx, tgt, src, opt)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Families: rev.Families,
		Elapsed:  rev.Elapsed,
	}
	out.Matches = unswapAll(rev.Matches)
	out.Standard = unswapAll(rev.Standard)
	for _, c := range rev.Candidates {
		base := unswap(*c.Base)
		out.Candidates = append(out.Candidates, ScoredCandidate{
			Match: unswap(c.Match),
			Base:  &base,
		})
	}
	return out, nil
}

func unswapAll(ms []match.Match) []match.Match {
	out := make([]match.Match, len(ms))
	for i, m := range ms {
		out[i] = unswap(m)
	}
	return out
}

func unswap(m match.Match) match.Match {
	return match.Match{
		Source:     m.Target,
		SourceAttr: m.TargetAttr,
		Target:     m.Source,
		TargetAttr: m.SourceAttr,
		Cond:       m.Cond,
		Score:      m.Score,
		Confidence: m.Confidence,
	}
}
