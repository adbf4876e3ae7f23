package core

import (
	"context"
	"fmt"
	"sync"

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
// replacement tables) and the affected-domain predicate (true when any
// table entering or leaving the catalog has an attribute of that
// domain).
func applyDelta(old *relational.Schema, delta Delta) (updated *relational.Schema, touched func(*relational.Table) bool, affected func(relational.Domain) bool, err error) {
	if delta.empty() {
		return nil, nil, nil, fmt.Errorf("%w: delta adds, replaces and drops nothing", ErrInvalidDelta)
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
			return nil, nil, nil, fmt.Errorf("%w: replace holds a nil table", ErrInvalidDelta)
		}
		if err := claim(t.Name, "replace"); err != nil {
			return nil, nil, nil, err
		}
		if _, ok := oldByName[t.Name]; !ok {
			return nil, nil, nil, fmt.Errorf("%w: replace names unknown table %q", ErrInvalidDelta, t.Name)
		}
		replace[t.Name] = t
	}
	drop := make(map[string]bool, len(delta.Drop))
	for _, name := range delta.Drop {
		if err := claim(name, "drop"); err != nil {
			return nil, nil, nil, err
		}
		if _, ok := oldByName[name]; !ok {
			return nil, nil, nil, fmt.Errorf("%w: drop names unknown table %q", ErrInvalidDelta, name)
		}
		drop[name] = true
	}
	for _, t := range delta.Add {
		if t == nil {
			return nil, nil, nil, fmt.Errorf("%w: add holds a nil table", ErrInvalidDelta)
		}
		if err := claim(t.Name, "add"); err != nil {
			return nil, nil, nil, err
		}
		if _, ok := oldByName[t.Name]; ok {
			return nil, nil, nil, fmt.Errorf("%w: add names existing table %q (use replace)", ErrInvalidDelta, t.Name)
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
		return nil, nil, nil, fmt.Errorf("updated target %w", ErrEmptySchema)
	}

	// Domains are affected by every table entering or leaving the
	// catalog: the old side of replacements and drops as much as the new
	// side, because removing training rows changes a domain classifier
	// too.
	affectedSet := map[relational.Domain]bool{}
	markAttrs := func(t *relational.Table) {
		for _, a := range t.Attrs {
			affectedSet[a.Type.Domain()] = true
		}
	}
	for name := range replace {
		markAttrs(oldByName[name])
	}
	for name := range drop {
		markAttrs(oldByName[name])
	}
	for t := range touchedSet {
		markAttrs(t)
	}
	return updated,
		func(t *relational.Table) bool { return touchedSet[t] },
		func(d relational.Domain) bool { return affectedSet[d] },
		nil
}

// Update returns a new PreparedTarget for the catalog with delta
// applied, rebuilding only what the delta touches: touched tables'
// columns rescan and splice into a fresh dictionary while untouched
// columns replay their recorded gram order without reading a row;
// string-domain classifier partials are reused per untouched table; and
// numeric domain classifiers retrain only when a touched table has a
// compatible attribute. The result is bit-identical to PrepareTarget
// over the updated catalog — same match results at any worker count —
// and the receiver remains valid and immutable, so a serving layer can
// atomically swap the returned handle in while requests drain against
// the old one.
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
	updated, touched, affected, err := applyDelta(pt.tgt, delta)
	if err != nil {
		return nil, err
	}
	needCls := pt.opt.Inference == TgtClassInfer
	old := pt.arts
	if !old.feats.CanUpdate() || (needCls && old.tcls == nil) {
		old = nil // no delta provenance: build from nothing
	}
	out := &PreparedTarget{tgt: updated, opt: pt.opt, eng: pt.eng, matches: pt.matches}
	out.arts = updateTargetArtifacts(pt.eng, old, updated, touched, affected, needCls, pt.opt.Parallelism)
	return out, nil
}

// updateTargetArtifacts is the one build path of a target's artifact
// set: column features interned into a fresh dictionary, classifier
// training and freezing into the same ID space, then the dictionary
// freeze that makes the whole set shareable. With nil old artifacts
// everything is built from nothing (a fresh prepare; touched and
// affected are not consulted); otherwise each half rebuilds only what
// the delta touches. The two halves run concurrently, and each fans
// internally across up to workers goroutines; the merge and freeze
// steps are sequential in canonical order. Because the feature replay
// reproduces a fresh build's gram first-appearance order and the
// classifier merge is exact, the artifact set is bit-identical to a
// build from nothing of updated, at any worker count.
func updateTargetArtifacts(eng *match.Engine, old *targetArtifacts, updated *relational.Schema, touched func(*relational.Table) bool, affected func(relational.Domain) bool, needCls bool, workers int) *targetArtifacts {
	if workers < 1 {
		workers = 1
	}
	var oldFeats *match.TargetFeatures
	var oldCls *targetClassifiers
	if old != nil {
		oldFeats, oldCls = old.feats, old.tcls
	}
	a := &targetArtifacts{dict: tokenize.NewDict()}
	var tcls *targetClassifiers
	var wg sync.WaitGroup
	if needCls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tcls = oldCls.update(updated, touched, affected, workers)
		}()
	}
	a.feats = eng.UpdateTargetFeatures(oldFeats, updated, a.dict, touched, workers)
	wg.Wait()
	if needCls {
		a.tcls = tcls
		a.fcls = tcls.freeze(a.dict)
	}
	a.dict.Freeze()
	return a
}
