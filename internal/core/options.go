// Package core implements the paper's primary contribution: contextual
// schema matching. It contains the ContextMatch driver (Figure 5), the
// three candidate-view inference algorithms — NaiveInfer (§3.2.1),
// SrcClassInfer (§3.2.3) and TgtClassInfer (§3.2.4 / Figure 7) — built on
// the well-clustered view family test of ClusteredViewGen (Figure 6), the
// EarlyDisjuncts error-merging loop (§3.3), the MultiTable and QualTable
// match-selection policies (§3.4), and the iterative conjunctive
// extension (§3.5).
package core

import (
	"math/rand"

	"ctxmatch/internal/match"
)

// Inference selects the InferCandidateViews implementation (§3.2).
type Inference int

// The candidate-view inference algorithms of §3.2.
const (
	// NaiveInfer creates a view per value of every categorical attribute
	// with no filtering (§3.2.1).
	NaiveInfer Inference = iota
	// SrcClassInfer trains a classifier on source values to find
	// well-clustered view families (§3.2.3).
	SrcClassInfer
	// TgtClassInfer tags source values with the most similar target
	// attribute and learns an association between tags and categorical
	// values (§3.2.4, Figure 7).
	TgtClassInfer
)

// String names the inference algorithm as in the paper's figures.
func (i Inference) String() string {
	switch i {
	case NaiveInfer:
		return "Naive"
	case SrcClassInfer:
		return "SrcClass"
	case TgtClassInfer:
		return "TgtClass"
	default:
		return "Inference(?)"
	}
}

// Selection selects the SelectContextualMatches implementation (§3.4).
type Selection int

// The match-selection policies of §3.4.
const (
	// QualTable selects the best set of matches coming from a consistent
	// source table (or set of its views) for each target table.
	QualTable Selection = iota
	// MultiTable selects the single best match for every target
	// attribute regardless of source; it is part of the strawman and
	// performs significantly worse (Figure 11).
	MultiTable
)

// String names the selection policy as in the paper's figures.
func (s Selection) String() string {
	switch s {
	case QualTable:
		return "QualTable"
	case MultiTable:
		return "MultiTable"
	default:
		return "Selection(?)"
	}
}

// Options are the tunables of ContextMatch. The zero value is not useful;
// start from DefaultOptions.
type Options struct {
	// Tau is the confidence threshold τ imposed by StandardMatch on the
	// prototype matches (§3.1). The paper uses 0.5 by default and
	// studies sensitivity in §5.8.
	Tau float64
	// Omega is the improvement threshold ω used by QualTable (§3.4): the
	// total confidence improvement of a candidate view over its base
	// table, summed across the table's matches, in percentage points.
	// The paper uses 5 by default and studies sensitivity in §5.1.
	Omega float64
	// EarlyDisjuncts selects early disjunction handling (§3.3): candidate
	// conditions may be disjunctive and only the single best view is
	// selected per target table. False selects LateDisjuncts: only
	// simple conditions are inferred and all views exceeding Omega are
	// selected (their union standing in for the disjunction).
	EarlyDisjuncts bool
	// Inference picks the InferCandidateViews implementation.
	Inference Inference
	// Selection picks the SelectContextualMatches implementation.
	Selection Selection
	// SignificanceT is the acceptance threshold T of the ClusteredViewGen
	// significance test (§3.2.2), typically 0.95.
	SignificanceT float64
	// TrainFrac is the fraction of sample tuples used for doTraining;
	// the rest are doTesting's unseen data (Figure 6).
	TrainFrac float64
	// MaxDepth bounds the conjunctive iteration of §3.5: 1 finds only
	// simple/disjunctive 1-conditions, 2 additionally finds 2-conditions,
	// and so on. The paper hypothesizes 2 or 3 is practically useful.
	MaxDepth int
	// Seed drives the train/test partitioning, making runs reproducible.
	Seed int64
	// Engine is the standard matching engine; nil uses match.NewEngine(),
	// the matcher suite of §2.3. Callers of the public Matcher cannot set
	// it: only tests swap in another engine (the pairwise n-gram oracle,
	// the EvidenceScale = 0 ablation), and a restored snapshot carries
	// the one it was prepared under.
	Engine *match.Engine
	// Parallelism bounds the worker pool that fans the per-source-table
	// candidate generation and scoring loop of Figure 5 out across
	// goroutines. Values ≤ 1 run sequentially. Output is deterministic
	// for any value: every table draws from its own RNG derived from
	// Seed and results are merged in schema order.
	Parallelism int
	// Cache, when non-nil, memoizes per-target-schema artifacts (trained
	// target classifiers, precomputed column features) across runs. A
	// long-lived Matcher supplies one; one-shot calls leave it nil.
	Cache *TargetCache
}

// DefaultOptions returns the paper's default parameters: τ=0.5, ω=5,
// T=0.95, a 2/3 training split, TgtClassInfer with QualTable and
// EarlyDisjuncts (the most accurate configuration per §5.9).
func DefaultOptions() Options {
	return Options{
		Tau:            0.5,
		Omega:          5,
		EarlyDisjuncts: true,
		Inference:      TgtClassInfer,
		Selection:      QualTable,
		SignificanceT:  0.95,
		TrainFrac:      2.0 / 3.0,
		MaxDepth:       1,
		Seed:           1,
	}
}

func (o *Options) engine() *match.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return match.NewEngine()
}

func (o *Options) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed)) }

// workers resolves Parallelism to an effective worker count for n tables.
func (o *Options) workers(n int) int {
	w := o.Parallelism
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}
