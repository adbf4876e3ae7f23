package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
)

// ScoredCandidate is one entry of the candidate list RL of Figure 5: a
// prototype match re-scored under a candidate view condition.
type ScoredCandidate struct {
	Match match.Match // Source is the view, Cond its condition
	// Base points at the prototype (unconditioned) match the candidate
	// was derived from — shared, not copied: one prototype fans out into
	// a candidate per view condition, and RL is by far the largest
	// allocation of a run.
	Base *match.Match
	// condKey caches Cond.String(), rendered once per candidate view by
	// the scoring loop; selection groups thousands of rescored matches
	// by condition and must not re-render it per entry.
	condKey string
}

// key returns the candidate's condition rendered as a grouping key.
func (s *ScoredCandidate) key() string {
	if s.condKey == "" && s.Match.Cond != nil {
		return s.Match.Cond.String()
	}
	return s.condKey
}

// Result is the full output of one ContextMatch run.
type Result struct {
	// Matches is M of Figure 5: the selected contextual matches.
	Matches []match.Match
	// Standard is the accepted output of StandardMatch, kept so callers
	// can compare what context added.
	Standard []match.Match
	// Candidates is RL: every view-conditioned rescoring that was
	// considered, for diagnostics and the strawman analysis.
	Candidates []ScoredCandidate
	// Families are the well-clustered view families that generated the
	// candidate conditions (empty under NaiveInfer).
	Families []ViewFamily
	// Elapsed is the wall-clock time of the run, the quantity charted by
	// the paper's performance figures.
	Elapsed time.Duration
}

// ContextualMatches returns only the matches that originate from views —
// the edges §5 evaluates ("only edges originating from views are
// considered").
func (r *Result) ContextualMatches() []match.Match {
	var out []match.Match
	for _, m := range r.Matches {
		if m.Source.IsView() {
			out = append(out, m)
		}
	}
	return out
}

// runState carries the per-call shared artifacts of one ContextMatch
// run: the context plus the prepared target-schema artifacts (resolved
// engine, feature layer, frozen target classifiers) that every
// per-table worker reads but none mutates, and the per-table column
// worker budget.
type runState struct {
	ctx   context.Context
	tgt   *relational.Schema
	opt   Options
	eng   *match.Engine
	feats *match.TargetFeatures
	fcls  *frozenTargetClassifiers
	// proj is the request's one tokenization of the source, keyed into
	// the target's dictionary: binds compile per-row segments from it
	// and the target tagger classifies from it, so neither re-tokenizes
	// a source column.
	proj *match.SourceProjection
	// cols is how many goroutines each table's source-side work (column
	// feature extraction, normalization, candidate-view scoring) may
	// fan across: the share of opt.Parallelism left over after the
	// table-level fan-out.
	cols int
}

// newRunState binds a context and the request's source projection to
// the pinned artifacts of a prepared target; all resolution and
// training already happened in PrepareTarget.
func newRunState(ctx context.Context, pt *PreparedTarget, proj *match.SourceProjection, cols int) *runState {
	return &runState{
		ctx: ctx, tgt: pt.tgt, opt: pt.opt, eng: pt.eng,
		feats: pt.arts.feats, fcls: pt.arts.fcls, proj: proj, cols: cols,
	}
}

// projectionKey is the context key of WithSourceProjection.
type projectionKey struct{}

// WithSourceProjection attaches a source projection to ctx for the
// prepared match it is passed to: a caller matching one source against
// many catalogs tokenizes the source once and hands each catalog its
// own projection, instead of letting every match tokenize it again.
// A projection keyed in another dictionary, or extracted from another
// schema than the match's source, is ignored.
func WithSourceProjection(ctx context.Context, p *match.SourceProjection) context.Context {
	return context.WithValue(ctx, projectionKey{}, p)
}

// sourceProjection returns the run's source projection: the one the
// caller attached to ctx for this target, or else src tokenized here
// (across workers goroutines) and keyed into the target's dictionary.
func sourceProjection(ctx context.Context, src *relational.Schema, pt *PreparedTarget, workers int) *match.SourceProjection {
	feats := pt.arts.feats
	if p, ok := ctx.Value(projectionKey{}).(*match.SourceProjection); ok && p != nil &&
		p.Source() == src && p.Dict() == feats.Dict() {
		return p
	}
	return match.FeaturizeSource(src, workers).ProjectDict(feats.Dict())
}

// tableResult is the output of lines 3-11 of Figure 5 for one source
// table, kept per table so the parallel fan-out can merge them in schema
// order regardless of goroutine interleaving.
type tableResult struct {
	protos   []match.Match
	rl       []ScoredCandidate
	families []ViewFamily
	err      error
}

// ContextMatch implements Algorithm ContextMatch (Figure 5) over whole
// schemas, plus the conjunctive iteration of §3.5 when opt.MaxDepth > 1.
// Candidate generation and scoring (lines 3-11) run per source table —
// fanned out across opt.Parallelism workers when asked — and match
// selection (line 12) runs globally so that QualTable can choose the
// best source table per target table.
//
// The run honors ctx: cancellation or deadline expiry aborts between
// scoring steps and surfaces as a *TableError wrapping ctx.Err() (or
// ctx.Err() itself when it strikes outside per-table work). Results are
// deterministic for any Parallelism: each table draws from its own RNG
// seeded from opt.Seed and per-table outputs merge in schema order.
func ContextMatch(ctx context.Context, src, tgt *relational.Schema, opt Options) (*Result, error) {
	start := time.Now()
	if err := validateSchemas(src, tgt); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// PrepareTarget checks ctx before the target-side precompute (column
	// scans, classifier training): an already-canceled context must not
	// pay for the catalog.
	pt, err := PrepareTarget(ctx, tgt, opt)
	if err != nil {
		return nil, err
	}
	// start predates PrepareTarget so a cold run's Elapsed includes the
	// target-side work, as it always has; a prepared run's Elapsed
	// (ContextMatchPrepared) covers only the run itself.
	return contextMatchPrepared(ctx, src, pt, start)
}

// contextMatchPrepared is the shared run path behind ContextMatch and
// ContextMatchPrepared: lines 3-12 of Figure 5 over an already-prepared
// target. Inputs are pre-validated, ctx is non-nil, and start is when
// the caller began the work Elapsed should account for.
func contextMatchPrepared(ctx context.Context, src *relational.Schema, pt *PreparedTarget, start time.Time) (*Result, error) {
	opt := pt.opt
	// Split the worker budget between table-level fan-out and per-table
	// column/candidate fan-out: a single-table source on an 8-way budget
	// still uses all 8 workers, inside the table.
	budget := opt.Parallelism
	if budget < 1 {
		budget = 1
	}
	tableWorkers := opt.workers(len(src.Tables))
	run := newRunState(ctx, pt, sourceProjection(ctx, src, pt, budget), budget/tableWorkers)

	outs := make([]tableResult, len(src.Tables))
	if workers := tableWorkers; workers <= 1 {
		for i, rs := range src.Tables {
			outs[i] = run.matchTable(rs)
			if outs[i].err != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					outs[i] = run.matchTable(src.Tables[i])
				}
			}()
		}
	feed:
		for i := range src.Tables {
			select {
			case idx <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(idx)
		wg.Wait()
	}

	// Surface failures before touching any partial output: first table
	// error in schema order wins, so the reported error is deterministic
	// too.
	for i := range outs {
		if err := outs[i].err; err != nil {
			return nil, &TableError{Table: src.Tables[i].Name, Err: err}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{}
	// Merge per-table outputs with exact-size allocations: the candidate
	// list runs to tens of thousands of entries on wide catalogs, and
	// growing it by doubling would copy megabytes per request.
	nProtos, nRL := 0, 0
	for _, out := range outs {
		nProtos += len(out.protos)
		nRL += len(out.rl)
	}
	protos := make([]match.Match, 0, nProtos)
	rl := make([]ScoredCandidate, 0, nRL)
	for _, out := range outs {
		protos = append(protos, out.protos...)
		rl = append(rl, out.rl...)
		for _, f := range out.families {
			res.Families = appendFamily(res.Families, f)
		}
	}
	res.Standard = protos
	res.Candidates = rl
	res.Matches = selectContextualMatches(protos, rl, opt) // line 12
	if opt.MaxDepth > 1 {
		if err := conjunctiveStages(run, res); err != nil {
			return nil, err
		}
	}
	match.SortMatches(res.Matches)
	res.Elapsed = time.Since(start)
	return res, nil
}

// matchTable runs lines 3-11 of Figure 5 for one source table: prototype
// matches via StandardMatch, candidate conditions via
// InferCandidateViews, and the scoring loop that fills RL. It is called
// from the worker pool, so it only reads shared state and reports
// through its return value.
func (r *runState) matchTable(rs *relational.Table) tableResult {
	if err := r.ctx.Err(); err != nil {
		return tableResult{err: err}
	}
	bound := r.eng.BindParallel(rs, r.tgt, r.feats, r.proj, r.cols)
	defer bound.Release()
	protos := bound.StandardMatches(r.opt.Tau) // line 4
	if err := r.ctx.Err(); err != nil {
		return tableResult{err: err}
	}

	cands := inferCandidateViews(rs, len(protos) > 0, r.opt, r.fcls, r.proj) // line 5
	var fams []ViewFamily
	for _, c := range cands {
		if c.Family != nil {
			fams = appendFamily(fams, *c.Family)
		}
	}
	rl, err := r.scoreCandidates(rs, bound, protos, cands) // lines 6-11
	return tableResult{protos: protos, rl: rl, families: fams, err: err}
}

// scoreCandidates evaluates every prototype match under every candidate
// condition (lines 6-11 of Figure 5). A match is scored only as a
// conditioned version of a StandardMatch output. Cancellation is checked
// once per candidate view, the granularity at which work is O(|protos| ·
// |sample|). With a column worker budget the candidates fan out across
// goroutines — each worker scoring through its own Bound clone — and the
// per-candidate outputs merge in candidate order, so the result is
// byte-identical at any parallelism.
func (r *runState) scoreCandidates(rs *relational.Table, bound *match.Bound, protos []match.Match, cands []Candidate) ([]ScoredCandidate, error) {
	workers := r.cols
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers > 1 {
		return r.scoreCandidatesParallel(rs, bound, protos, cands, workers)
	}
	// Every candidate contributes at most len(protos) entries, so one
	// exact-capacity allocation replaces both the per-candidate slices
	// and the doubling growth of the merged list — the dominant
	// allocation of a large match before this was hoisted.
	resolved := resolveProtos(bound, protos)
	rl := make([]ScoredCandidate, 0, len(cands)*len(protos))
	for _, c := range cands {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		rl = scoreOneCandidate(rs, bound, protos, resolved, c, rl)
	}
	return rl, nil
}

// resolveProtos hoists the view-invariant half of scoring each prototype
// pair — target-table resolution, matcher applicability, normalization
// statistics — out of the per-candidate loop. The resolved pairs are
// immutable and valid for every clone of bound.
func resolveProtos(bound *match.Bound, protos []match.Match) []match.ResolvedPair {
	resolved := make([]match.ResolvedPair, len(protos))
	for i, p := range protos {
		resolved[i] = bound.Resolve(p.SourceAttr, p.Target.Name, p.TargetAttr)
	}
	return resolved
}

// scoreOneCandidate materializes one candidate view and rescores every
// prototype under it (lines 7-9 of Figure 5), appending into rl.
func scoreOneCandidate(rs *relational.Table, bound *match.Bound, protos []match.Match, resolved []match.ResolvedPair, c Candidate, rl []ScoredCandidate) []ScoredCandidate {
	view := rs.Select(viewName(rs, c.Cond), c.Cond) // line 7
	if view.Len() == 0 {
		return rl
	}
	condKey := c.Cond.String()
	for pi := range protos { // line 8
		proto := &protos[pi]
		score, conf := bound.ScoreResolved(view, &resolved[pi])
		m := *proto // line 9: m' is m with RS replaced by Vc
		m.Source = view
		m.Cond = c.Cond
		m.Score = score
		m.Confidence = conf
		rl = append(rl, ScoredCandidate{Match: m, Base: proto, condKey: condKey})
	}
	return rl
}

// scoreCandidatesParallel fans candidate views across workers via the
// shared index pool. Scoring goes through pooled Bound clones (shared
// normalization statistics and target features, private view-feature
// caches), results land in per-candidate slots, and the merge walks the
// slots in candidate order — so the output is byte-identical to the
// sequential loop. On cancellation every unscored candidate records
// ctx.Err() and the lowest-index error is reported, matching the
// sequential path.
func (r *runState) scoreCandidatesParallel(rs *relational.Table, bound *match.Bound, protos []match.Match, cands []Candidate, workers int) ([]ScoredCandidate, error) {
	resolved := resolveProtos(bound, protos)
	slots := make([][]ScoredCandidate, len(cands))
	errs := make([]error, len(cands))
	var mu sync.Mutex
	var clones []*match.Bound
	pool := sync.Pool{New: func() any {
		c := bound.Clone()
		mu.Lock()
		clones = append(clones, c)
		mu.Unlock()
		return c
	}}
	match.ForEachIndex(len(cands), workers, func(i int) {
		if err := r.ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		clone := pool.Get().(*match.Bound)
		slots[i] = scoreOneCandidate(rs, clone, protos, resolved, cands[i], make([]ScoredCandidate, 0, len(protos)))
		pool.Put(clone)
	})
	for _, c := range clones {
		c.Release()
	}
	total := 0
	for i := range cands {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += len(slots[i])
	}
	rl := make([]ScoredCandidate, 0, total)
	for i := range cands {
		rl = append(rl, slots[i]...)
	}
	return rl, nil
}

// viewName builds a readable, SQL-identifier-safe name for an inferred
// view, e.g. "grades_narrow__examNum_2" for examNum = 2.
func viewName(rs *relational.Table, c relational.Condition) string {
	var b strings.Builder
	b.WriteString(rs.Name)
	b.WriteString("__")
	lastUnderscore := true
	for _, r := range c.String() {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	return strings.TrimRight(b.String(), "_")
}

// selectContextualMatches dispatches to the configured §3.4 policy.
func selectContextualMatches(protos []match.Match, rl []ScoredCandidate, opt Options) []match.Match {
	switch opt.Selection {
	case MultiTable:
		return selectMultiTable(protos, rl)
	default:
		return selectQualTable(protos, rl, opt)
	}
}

// selectMultiTable implements the MultiTable policy of §3.4: for every
// target attribute keep the single highest-confidence contextual match,
// regardless of source consistency. Following the strawman of §3, a
// conditioned match replaces its base match whenever one exists (the
// strawman "uses (RS.s, RT.t, c+) in place of Mi"); a base match
// survives only for target attributes no candidate view reached. The
// resulting mixing of sources and conditions per attribute is the
// policy's documented weakness (Figure 11).
func selectMultiTable(protos []match.Match, rl []ScoredCandidate) []match.Match {
	best := map[relational.AttrRef]match.Match{}
	for _, c := range rl {
		key := relational.AttrRef{Table: c.Match.Target.Name, Attr: c.Match.TargetAttr}
		if prev, ok := best[key]; !ok || c.Match.Confidence > prev.Confidence {
			best[key] = c.Match
		}
	}
	for _, p := range protos {
		key := relational.AttrRef{Table: p.Target.Name, Attr: p.TargetAttr}
		if _, ok := best[key]; !ok {
			best[key] = p
		}
	}
	out := make([]match.Match, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	match.SortMatches(out)
	return out
}

// improvementEpsilon is the minimum raw-score gain (1 = 100 points) a
// rescored match must show before it counts as improved by a view;
// smaller movements are sampling noise.
const improvementEpsilon = 0.02

// selectQualTable implements the QualTable policy of §3.4. For each
// target table it first selects the source table that maximizes the
// total confidence of prototype matches into it, then replaces that base
// table with whichever of its candidate views improve the table-level
// match quality by at least ω (all of them under LateDisjuncts, only the
// single best one under EarlyDisjuncts).
//
// Table-level improvement is measured over the matches between the
// (view or base) table and RT — the matches whose rescored confidence
// still clears τ. A correct view typically destroys the matches
// belonging to the other contexts (an exam-1 view should no longer
// match grade5), so comparing totals over the fixed prototype set would
// penalize exactly the right views; the surviving match set is what
// "the matches between Vc and RT" denotes. The ω statistic is the
// average raw-score gain over the survivors the view strictly improved
// (by more than improvementEpsilon): raw scores rather than confidences
// because Φ saturates near 1 and hides real evidence gains, gains-only
// because junk-to-junk matches that a view leaves untouched must not
// dilute the statistic on wide schemas, and ε-thresholded so that
// sampling noise cannot pass for improvement (the §3 significance
// concern).
func selectQualTable(protos []match.Match, rl []ScoredCandidate, opt Options) []match.Match {
	// Group prototype matches by (target table, source table).
	type srcTotal struct {
		matches    []match.Match
		total      float64 // summed confidence (source-table selection)
		scoreTotal float64 // summed raw score (ω comparison)
	}
	byTarget := map[string]map[string]*srcTotal{}
	for _, p := range protos {
		srcs := byTarget[p.Target.Name]
		if srcs == nil {
			srcs = map[string]*srcTotal{}
			byTarget[p.Target.Name] = srcs
		}
		sname := p.Source.Root().Name
		st := srcs[sname]
		if st == nil {
			st = &srcTotal{}
			srcs[sname] = st
		}
		st.matches = append(st.matches, p)
		st.total += p.Confidence
		st.scoreTotal += p.Score
	}
	// Index candidates: target table -> source table -> condition ->
	// group of surviving matches (rescored confidence still ≥ τ).
	// gains/improved accumulate over the survivors whose raw score rose
	// by more than improvementEpsilon: matches untouched by the
	// condition stay out of the statistic (so wide schemas full of
	// junk-to-junk matches do not dilute it), matches the view destroys
	// leave the group entirely (they are no longer matches between Vc
	// and RT), and sampling noise below ε cannot masquerade as
	// improvement — the significance concern of §3.
	// Groups hold indices into rl rather than Match copies: most groups
	// lose (only winners' matches reach the output), so copying every
	// surviving candidate's 80-byte Match into growing group slices paid
	// for work the selection below throws away.
	type viewGroup struct {
		cond     relational.Condition
		idx      []int32
		gains    float64
		improved int
		viewSize int
	}
	byTargetSrcCond := map[string]map[string]map[string]*viewGroup{}
	for i := range rl {
		c := &rl[i]
		if c.Match.Confidence < opt.Tau {
			continue // no longer a match between Vc and RT
		}
		tname := c.Match.Target.Name
		sname := c.Match.Source.Root().Name
		srcs := byTargetSrcCond[tname]
		if srcs == nil {
			srcs = map[string]map[string]*viewGroup{}
			byTargetSrcCond[tname] = srcs
		}
		conds := srcs[sname]
		if conds == nil {
			conds = map[string]*viewGroup{}
			srcs[sname] = conds
		}
		key := c.key()
		g := conds[key]
		if g == nil {
			g = &viewGroup{cond: c.Match.Cond, viewSize: c.Match.Source.Len()}
			conds[key] = g
		}
		g.idx = append(g.idx, int32(i))
		if delta := c.Match.Score - c.Base.Score; delta > improvementEpsilon {
			g.gains += delta
			g.improved++
		}
	}

	var out []match.Match
	for tname, srcs := range byTarget {
		// Pick the source table with the highest total base confidence;
		// ties break lexicographically for determinism.
		bestSrc, bestTotal := "", -1.0
		for sname, st := range srcs {
			if st.total > bestTotal || (st.total == bestTotal && sname < bestSrc) {
				bestSrc, bestTotal = sname, st.total
			}
		}
		base := srcs[bestSrc].matches

		var winners []*viewGroup
		groups := byTargetSrcCond[tname][bestSrc]
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var bestImp float64
		var bestSize int
		for _, k := range keys {
			g := groups[k]
			if g.improved == 0 {
				continue
			}
			// Improvement in points: the average raw-score gain over the
			// matches the view actually sharpened.
			imp := 100 * g.gains / float64(g.improved)
			if imp < opt.Omega {
				continue
			}
			if opt.EarlyDisjuncts {
				// Single best view; ties prefer the view with more
				// supporting rows (the fuller disjunction).
				if len(winners) == 0 || imp > bestImp ||
					(imp == bestImp && g.viewSize > bestSize) {
					winners = []*viewGroup{g}
					bestImp, bestSize = imp, g.viewSize
				}
				continue
			}
			winners = append(winners, g)
		}
		if len(winners) == 0 {
			// No view improves enough: the base matches stand.
			out = append(out, base...)
			continue
		}
		for _, g := range winners {
			for _, i := range g.idx {
				out = append(out, rl[i].Match)
			}
		}
	}
	match.SortMatches(out)
	return out
}

// conjunctiveStages implements §3.5: repeatedly re-run inference treating
// the views selected in the previous stage as base tables, restricting
// partitioning to attributes not already mentioned in the view condition.
func conjunctiveStages(r *runState, res *Result) error {
	current := res.ContextualMatches()
	for depth := 2; depth <= r.opt.MaxDepth; depth++ {
		// Collect the distinct views selected at the previous stage.
		views := map[string]*relational.Table{}
		protosByView := map[string][]match.Match{}
		for _, m := range current {
			views[m.Source.Name] = m.Source
			protosByView[m.Source.Name] = append(protosByView[m.Source.Name], m)
		}
		var next []match.Match
		for name, view := range views {
			protos := protosByView[name]
			used := map[string]bool{}
			if view.Cond != nil {
				for _, a := range view.Cond.Attrs() {
					used[a] = true
				}
			}
			stage, err := r.stageMatches(view, used, protos)
			if err != nil {
				return &TableError{Table: view.Root().Name, Err: err}
			}
			next = append(next, stage...)
		}
		if len(next) == 0 {
			return nil
		}
		res.Matches = append(res.Matches, next...)
		current = next
	}
	return nil
}

// stageMatches scores refinements of one selected view: candidate
// conditions over categorical attributes not already used, conjoined
// with the view's own condition.
func (r *runState) stageMatches(view *relational.Table, used map[string]bool, protos []match.Match) ([]match.Match, error) {
	base := view.Root()
	bound := r.eng.BindParallel(base, r.tgt, r.feats, r.proj, r.cols)
	defer bound.Release()
	resolved := resolveProtos(bound, protos)
	var rl []ScoredCandidate
	for _, c := range inferCandidateViews(view, len(protos) > 0, r.opt, r.fcls, r.proj) {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		skip := false
		for _, a := range c.Cond.Attrs() {
			if used[a] {
				skip = true // §3.5(b): only fresh attributes partition
				break
			}
		}
		if skip {
			continue
		}
		cond := relational.NewAnd(view.Cond, c.Cond)
		refined := base.Select(viewName(base, cond), cond)
		if refined.Len() == 0 {
			continue
		}
		condKey := cond.String()
		for pi := range protos {
			proto := &protos[pi]
			score, conf := bound.ScoreResolved(refined, &resolved[pi])
			m := *proto
			m.Source = refined
			m.Cond = cond
			m.Score = score
			m.Confidence = conf
			rl = append(rl, ScoredCandidate{Match: m, Base: proto, condKey: condKey})
		}
	}
	return selectRefinements(protos, rl, r.opt), nil
}

// selectRefinements applies a QualTable-style acceptance rule to
// conjunction candidates. Because the previous stage's confidences
// typically sit near Φ≈1 (the CDF saturates), a refinement is judged on
// its total raw-score improvement instead: it must raise the summed raw
// matcher score across the table's matches by at least ω points (×100)
// without materially lowering total confidence. The paper describes the conjunctive
// search but leaves its evaluation as future work, so this acceptance
// rule is ours; it keeps the same "total improvement over a whole table"
// character as §3.4.
func selectRefinements(protos []match.Match, rl []ScoredCandidate, opt Options) []match.Match {
	var baseScore, baseConf float64
	for _, p := range protos {
		baseScore += p.Score
		baseConf += p.Confidence
	}
	type group struct {
		matches []match.Match
		score   float64
		conf    float64
	}
	groups := map[string]*group{}
	for i := range rl {
		c := &rl[i]
		key := c.key()
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
		}
		g.matches = append(g.matches, c.Match)
		g.score += c.Match.Score
		g.conf += c.Match.Confidence
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var winners []*group
	var bestImp float64
	for _, k := range keys {
		g := groups[k]
		imp := 100 * (g.score - baseScore)
		// The confidence guard tolerates 5% slack: near Φ≈1, confidences
		// jitter by fractions of a point and must not veto a refinement
		// whose raw evidence clearly improved.
		if imp < opt.Omega || g.conf < baseConf*0.95 {
			continue
		}
		if opt.EarlyDisjuncts {
			if len(winners) == 0 || imp > bestImp {
				winners = []*group{g}
				bestImp = imp
			}
			continue
		}
		winners = append(winners, g)
	}
	var out []match.Match
	for _, g := range winners {
		out = append(out, g.matches...)
	}
	match.SortMatches(out)
	return out
}

func appendFamily(fams []ViewFamily, f ViewFamily) []ViewFamily {
	fk := f.key()
	for i := range fams {
		if fams[i].key() == fk {
			return fams
		}
	}
	return append(fams, f)
}
