package core

import (
	"context"
	"fmt"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// Delta describes an edit to a prepared catalog: tables to append,
// tables to replace in place (matched by name — covering row changes,
// since sample instances are immutable while prepared), and table names
// to drop. A table name may be referenced by at most one of the three
// lists; replaced and dropped names must exist in the catalog, added
// names must not.
type Delta struct {
	Add     []*relational.Table
	Replace []*relational.Table
	Drop    []string
}

// empty reports whether the delta changes nothing.
func (d Delta) empty() bool {
	return len(d.Add) == 0 && len(d.Replace) == 0 && len(d.Drop) == 0
}

// applyDelta validates delta against old and materializes the updated
// schema: old's tables in order with drops removed and replacements
// spliced into their original positions, then additions appended — the
// same table order an operator editing the catalog and re-preparing
// would produce. Untouched tables keep their *Table identity, which is
// what lets the old feature layer's column artifacts be reused by
// pointer. It returns the touched-table predicate (true for added and
// replacement tables).
func applyDelta(old *relational.Schema, delta Delta) (updated *relational.Schema, touched func(*relational.Table) bool, err error) {
	if delta.empty() {
		return nil, nil, fmt.Errorf("%w: delta adds, replaces and drops nothing", ErrInvalidDelta)
	}
	oldByName := make(map[string]*relational.Table, len(old.Tables))
	for _, t := range old.Tables {
		oldByName[t.Name] = t
	}
	seen := map[string]string{} // name -> which list referenced it
	claim := func(name, list string) error {
		if name == "" {
			return fmt.Errorf("%w: %s references an unnamed table", ErrInvalidDelta, list)
		}
		if prev, ok := seen[name]; ok {
			return fmt.Errorf("%w: table %q referenced by both %s and %s", ErrInvalidDelta, name, prev, list)
		}
		seen[name] = list
		return nil
	}
	replace := make(map[string]*relational.Table, len(delta.Replace))
	for _, t := range delta.Replace {
		if t == nil {
			return nil, nil, fmt.Errorf("%w: replace holds a nil table", ErrInvalidDelta)
		}
		if err := claim(t.Name, "replace"); err != nil {
			return nil, nil, err
		}
		if _, ok := oldByName[t.Name]; !ok {
			return nil, nil, fmt.Errorf("%w: replace names unknown table %q", ErrInvalidDelta, t.Name)
		}
		replace[t.Name] = t
	}
	drop := make(map[string]bool, len(delta.Drop))
	for _, name := range delta.Drop {
		if err := claim(name, "drop"); err != nil {
			return nil, nil, err
		}
		if _, ok := oldByName[name]; !ok {
			return nil, nil, fmt.Errorf("%w: drop names unknown table %q", ErrInvalidDelta, name)
		}
		drop[name] = true
	}
	for _, t := range delta.Add {
		if t == nil {
			return nil, nil, fmt.Errorf("%w: add holds a nil table", ErrInvalidDelta)
		}
		if err := claim(t.Name, "add"); err != nil {
			return nil, nil, err
		}
		if _, ok := oldByName[t.Name]; ok {
			return nil, nil, fmt.Errorf("%w: add names existing table %q (use replace)", ErrInvalidDelta, t.Name)
		}
	}

	updated = &relational.Schema{Name: old.Name}
	touchedSet := make(map[*relational.Table]bool, len(delta.Add)+len(delta.Replace))
	for _, t := range old.Tables {
		switch {
		case drop[t.Name]:
		case replace[t.Name] != nil:
			nt := replace[t.Name]
			updated.Tables = append(updated.Tables, nt)
			touchedSet[nt] = true
		default:
			updated.Tables = append(updated.Tables, t)
		}
	}
	for _, t := range delta.Add {
		updated.Tables = append(updated.Tables, t)
		touchedSet[t] = true
	}
	if len(updated.Tables) == 0 {
		return nil, nil, fmt.Errorf("updated target %w", ErrEmptySchema)
	}
	return updated, func(t *relational.Table) bool { return touchedSet[t] }, nil
}

// Update returns a new PreparedTarget for the catalog with delta
// applied, rescanning only the tables the delta touches: their columns
// rescan and splice into a fresh dictionary while untouched columns
// replay their recorded gram order without reading a row. The target
// classifiers are rebuilt from the result on every update: the
// string-domain Naive Bayes compiles from the feature layer's column
// vectors and the numeric domains retrain from the rows. The result is
// bit-identical to PrepareTarget over the updated catalog — same match
// results at any worker count — and the receiver remains valid and
// immutable, so a serving layer can atomically swap the returned
// handle in while requests drain against the old one.
//
// The returned handle shares the receiver's match counter (per-catalog
// traffic statistics survive updates). Handles restored from snapshots
// carry no delta provenance, so Update builds the updated catalog from
// nothing — still correct, just not incremental. An invalid
// delta returns ErrInvalidDelta; dropping every table returns
// ErrEmptySchema.
func (pt *PreparedTarget) Update(ctx context.Context, delta Delta) (*PreparedTarget, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	updated, touched, err := applyDelta(pt.tgt, delta)
	if err != nil {
		return nil, err
	}
	old := pt.arts.feats
	if !old.CanUpdate() {
		old = nil // no delta provenance: build from nothing
	}
	out := &PreparedTarget{tgt: updated, opt: pt.opt, eng: pt.eng, matches: pt.matches}
	out.arts = updateTargetArtifacts(pt.eng, old, updated, touched, pt.opt.Inference == TgtClassInfer, pt.opt.Parallelism)
	return out, nil
}

// updateTargetArtifacts is the one build path of a target's artifact
// set: the column feature layer interned into a fresh dictionary, the
// dictionary freeze that makes the set shareable, then (when needCls)
// the target classifiers compiled from the layer into the same ID
// space. With a nil old layer everything is built from nothing (a fresh
// prepare; touched is not consulted); otherwise the feature layer
// rebuilds only the columns of touched tables. The feature build fans
// across up to workers goroutines and its merge is sequential in
// canonical order, so the artifact set is bit-identical to a build from
// nothing of updated, at any worker count.
func updateTargetArtifacts(eng *match.Engine, old *match.TargetFeatures, updated *relational.Schema, touched func(*relational.Table) bool, needCls bool, workers int) *targetArtifacts {
	if workers < 1 {
		workers = 1
	}
	a := &targetArtifacts{dict: tokenize.NewDict()}
	a.feats = eng.UpdateTargetFeatures(old, updated, a.dict, touched, workers)
	a.dict.Freeze()
	if needCls {
		a.fcls = compileTargetClassifiers(a.feats)
	}
	return a
}
