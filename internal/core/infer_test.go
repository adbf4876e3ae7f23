package core

import "ctxmatch/internal/relational"

// InferCandidateViews runs candidate inference for source table r
// without a prepared target or a source projection: TgtClassInfer
// compiles tgt's classifiers here.
func InferCandidateViews(r *relational.Table, tgt *relational.Schema, hasMatches bool, opt Options) []Candidate {
	var fcls *frozenTargetClassifiers
	if opt.Inference == TgtClassInfer {
		fcls = updateTargetArtifacts(nil, tgt, nil, true, 1).fcls
	}
	return inferCandidateViews(r, hasMatches, opt, fcls, nil)
}

// Families runs the configured inference and returns the raw
// well-clustered view families (none for NaiveInfer, which has no
// families).
func Families(r *relational.Table, tgt *relational.Schema, opt Options) []ViewFamily {
	cfg := clusterConfig{
		threshold:      opt.SignificanceT,
		trainFrac:      opt.TrainFrac,
		earlyDisjuncts: opt.EarlyDisjuncts,
	}
	switch opt.Inference {
	case SrcClassInfer:
		cfg.factory = srcClassifierFactory
	case TgtClassInfer:
		cfg.factory = newTagger(updateTargetArtifacts(nil, tgt, nil, true, 1).fcls, nil).factory
	default:
		return nil
	}
	return clusteredViewGen(r, cfg, opt.rng())
}
