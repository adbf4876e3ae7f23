package ctxmatch

import (
	"errors"
	"fmt"

	"ctxmatch/internal/core"
)

// ErrInvalidOption is wrapped by every configuration error New returns,
// so callers can test for the whole class with errors.Is.
var ErrInvalidOption = errors.New("ctxmatch: invalid option")

// config is the Matcher configuration being assembled by New. It embeds
// the legacy core Options so WithOptions can adopt one wholesale.
type config struct {
	core.Options
}

// Option configures a Matcher under construction. Options apply in the
// order given to New; later options override earlier ones.
type Option func(*config)

// WithTau sets the confidence threshold τ imposed on prototype matches
// (§3.1); the paper's default is 0.5.
func WithTau(tau float64) Option { return func(c *config) { c.Tau = tau } }

// WithOmega sets the view improvement threshold ω of QualTable (§3.4),
// in percentage points; the paper's default is 5.
func WithOmega(omega float64) Option { return func(c *config) { c.Omega = omega } }

// WithInference picks the candidate-view inference algorithm (§3.2).
func WithInference(i Inference) Option { return func(c *config) { c.Inference = i } }

// WithSelection picks the match-selection policy (§3.4).
func WithSelection(s Selection) Option { return func(c *config) { c.Selection = s } }

// WithEarlyDisjuncts(true) selects early disjunction handling (§3.3):
// disjunctive candidate conditions, single best view per target table.
// WithEarlyDisjuncts(false) selects LateDisjuncts: simple conditions
// only, every view clearing ω selected.
func WithEarlyDisjuncts(early bool) Option {
	return func(c *config) { c.EarlyDisjuncts = early }
}

// WithSignificanceT sets the acceptance threshold T of the
// ClusteredViewGen significance test (§3.2.2), typically 0.95.
func WithSignificanceT(t float64) Option { return func(c *config) { c.SignificanceT = t } }

// WithTrainFrac sets the fraction of sample tuples used for classifier
// training; the remainder is held out for the significance test.
func WithTrainFrac(frac float64) Option { return func(c *config) { c.TrainFrac = frac } }

// WithMaxDepth bounds the conjunctive iteration of §3.5: 1 finds only
// simple/disjunctive 1-conditions, 2 additionally finds 2-conditions,
// and so on.
func WithMaxDepth(depth int) Option { return func(c *config) { c.MaxDepth = depth } }

// WithSeed sets the seed of the per-table RNGs driving train/test
// partitioning; runs are reproducible for a fixed seed at any
// parallelism.
func WithSeed(seed int64) Option { return func(c *config) { c.Seed = seed } }

// WithParallelism bounds the worker pool that fans per-source-table
// candidate generation and scoring out across goroutines. 1 runs
// sequentially; results are byte-identical for every value. New defaults
// to GOMAXPROCS.
func WithParallelism(n int) Option { return func(c *config) { c.Parallelism = n } }

// WithOptions adopts a legacy Options value wholesale, as a migration
// bridge from the free-function API. Options placed after it still
// override individual fields. A zero Parallelism — the free functions
// never had the field — keeps the Matcher's current (default) value
// rather than failing validation. The Engine field is ignored: every
// Matcher runs the standard matcher suite of §2.3.
func WithOptions(opt Options) Option {
	return func(c *config) {
		if opt.Parallelism == 0 {
			opt.Parallelism = c.Parallelism
		}
		opt.Engine = c.Engine
		c.Options = opt
	}
}

// validate rejects configurations the pipeline cannot run with,
// reporting every violation at once.
func (c *config) validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("%w: %s", ErrInvalidOption, fmt.Sprintf(format, args...)))
	}
	if c.Tau < 0 || c.Tau > 1 {
		bad("tau %v outside [0, 1]", c.Tau)
	}
	if c.Omega < 0 {
		bad("omega %v negative", c.Omega)
	}
	if c.SignificanceT < 0 || c.SignificanceT > 1 {
		bad("significance threshold %v outside [0, 1]", c.SignificanceT)
	}
	if c.TrainFrac <= 0 || c.TrainFrac >= 1 {
		bad("train fraction %v outside (0, 1)", c.TrainFrac)
	}
	if c.MaxDepth < 1 {
		bad("max depth %d below 1", c.MaxDepth)
	}
	if c.Parallelism < 1 {
		bad("parallelism %d below 1", c.Parallelism)
	}
	switch c.Inference {
	case NaiveInfer, SrcClassInfer, TgtClassInfer:
	default:
		bad("unknown inference algorithm %d", c.Inference)
	}
	switch c.Selection {
	case QualTable, MultiTable:
	default:
		bad("unknown selection policy %d", c.Selection)
	}
	return errors.Join(errs...)
}
