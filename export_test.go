package ctxmatch

import "ctxmatch/internal/match"

// WithEngine swaps the Matcher's standard-matching engine, so tests can
// run the pairwise n-gram oracle or the EvidenceScale = 0 ablation. The
// engine must not be mutated afterwards.
func WithEngine(e *match.Engine) Option { return func(c *config) { c.Engine = e } }
