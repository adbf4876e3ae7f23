package core

import (
	"io"
	"sync/atomic"

	"ctxmatch/internal/snapshot"
)

// WriteSnapshot serializes the handle's pinned artifacts — target
// schema with its sample instance, options, engine configuration,
// frozen dictionary, column feature layer with its merge orders, and
// candidate index — into the versioned snapshot container, returning
// the bytes written. A handle restored from those bytes matches and
// updates bit-identically to this one.
func (pt *PreparedTarget) WriteSnapshot(w io.Writer) (int64, error) {
	return snapshot.Write(w, &snapshot.Artifacts{
		Schema: pt.tgt,
		Options: snapshot.Options{
			Tau:            pt.opt.Tau,
			Omega:          pt.opt.Omega,
			EarlyDisjuncts: pt.opt.EarlyDisjuncts,
			Inference:      int(pt.opt.Inference),
			Selection:      int(pt.opt.Selection),
			SignificanceT:  pt.opt.SignificanceT,
			TrainFrac:      pt.opt.TrainFrac,
			MaxDepth:       pt.opt.MaxDepth,
			Seed:           pt.opt.Seed,
			Parallelism:    pt.opt.Parallelism,
		},
		Engine:   pt.eng,
		Dict:     pt.arts.dict,
		Features: pt.arts.feats,
	})
}

// LoadPreparedTarget deserializes a snapshot written by WriteSnapshot
// into a ready-to-match handle. The dictionary and the feature layer
// come back as the pure-data tables the snapshot recorded, no column is
// rescanned, and under TgtClassInfer the target classifiers compile
// from them through compileTargetClassifiers, as a prepare or an Update
// compiles them. A format-1 snapshot, which lacks the merge orders, is
// re-prepared from the schema and options it carries instead; the
// handle then reports Upgraded. Corrupt or foreign input fails with the
// snapshot package's structured errors.
func LoadPreparedTarget(r io.Reader) (*PreparedTarget, error) {
	a, size, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	opt := Options{
		Tau:            a.Options.Tau,
		Omega:          a.Options.Omega,
		EarlyDisjuncts: a.Options.EarlyDisjuncts,
		Inference:      Inference(a.Options.Inference),
		Selection:      Selection(a.Options.Selection),
		SignificanceT:  a.Options.SignificanceT,
		TrainFrac:      a.Options.TrainFrac,
		MaxDepth:       a.Options.MaxDepth,
		Seed:           a.Options.Seed,
		Parallelism:    a.Options.Parallelism,
		Engine:         a.Engine,
	}
	needCls := opt.Inference == TgtClassInfer
	var arts *targetArtifacts
	if a.Features == nil {
		arts = updateTargetArtifacts(nil, a.Schema, nil, needCls, opt.Parallelism)
	} else {
		arts = &targetArtifacts{dict: a.Dict, feats: a.Features}
		if needCls {
			arts.fcls = compileTargetClassifiers(a.Features)
		}
	}
	return &PreparedTarget{
		tgt:           a.Schema,
		opt:           opt,
		eng:           a.Engine,
		arts:          arts,
		snapshotBytes: size,
		restored:      true,
		upgraded:      a.Features == nil,
		matches:       &atomic.Int64{},
	}, nil
}

// Upgraded reports whether the handle was loaded from a snapshot in a
// format older than the one WriteSnapshot writes, and so was
// re-prepared; a serving layer rewrites such a snapshot.
func (pt *PreparedTarget) Upgraded() bool { return pt.upgraded }
