package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/repository"
	"ctxmatch/internal/service"
)

// encodeJSON encodes v the way the daemon writes a response body.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

var elapsedKey = []byte(`"elapsed_ns":`)

// maskElapsed zeroes every Result's elapsed_ns — the run's wall-clock
// time, the one field of a response that differs between two identical
// matches — so the rest of a body can be compared byte for byte. Inside
// JSON strings a quote is escaped, so the key cannot occur in data.
func maskElapsed(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for {
		i := bytes.Index(b, elapsedKey)
		if i < 0 {
			return append(out, b...)
		}
		i += len(elapsedKey)
		out = append(append(out, b[:i]...), '0')
		for i < len(b) && (b[i] == '-' || (b[i] >= '0' && b[i] <= '9')) {
			i++
		}
		b = b[i:]
	}
}

// matchAnyResponse builds the body the match-any handler writes for rep.
func matchAnyResponse(rep *repository.Report) service.MatchAnyResponse {
	resp := service.MatchAnyResponse{
		Catalogs:   make([]service.MatchAnyCatalog, 0, len(rep.Ranked)),
		Retrieval:  rep.Retrieval,
		Considered: rep.Considered,
		Pruned:     rep.Pruned,
		Matched:    rep.Matched,
		Degraded:   rep.Degraded,
		Skipped:    rep.Skipped,
	}
	for _, cm := range rep.Ranked {
		resp.Catalogs = append(resp.Catalogs, service.MatchAnyCatalog{
			Name: cm.Name, Generation: cm.Generation, Evidence: cm.Evidence,
			Score: cm.Score, Result: cm.Result,
		})
	}
	return resp
}

// references computes, in-process and off the clock, the exact body the
// daemon must return for each pool source — the encoded Target.Match
// result against the one catalog, elapsed time masked — splitting the
// sources over workers goroutines.
func references(srv *service.Server, cat *catalog, pool []*source, workers int) ([][]byte, error) {
	t, ok := srv.Registry().Get(cat.name)
	if !ok {
		return nil, fmt.Errorf("catalog %s not installed", cat.name)
	}
	out := make([][]byte, len(pool))
	errs := make([]error, len(pool))
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(pool); i += workers {
				res, err := t.Match(context.Background(), pool[i].schema)
				if err == nil {
					var b []byte
					b, err = encodeJSON(res)
					out[i] = maskElapsed(b)
				}
				errs[i] = err
			}
		}(k)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// versionOf names the content a catalog holds at generation gen: its
// PUT installs version 0 as generation 1, and every PATCH flips the
// version, so the parity of the generation names it.
func versionOf(gen int) (int, error) {
	if gen < 1 {
		return 0, fmt.Errorf("generation %d: catalogs start at generation 1", gen)
	}
	return (gen - 1) % 2, nil
}

// anyBody is the part of a match-any response the churn check reads.
type anyBody struct {
	Catalogs []struct {
		Name       string          `json:"name"`
		Generation int             `json:"generation"`
		Score      float64         `json:"score"`
		Result     json.RawMessage `json:"result"`
	} `json:"catalogs"`
	Considered int  `json:"considered"`
	Matched    int  `json:"matched"`
	Degraded   bool `json:"degraded"`
}

// versionRefs holds, per catalog, the prepared handles of both versions
// and the memoized reference result for each (source, catalog, version)
// a response returned. Version-1 handles are derived by Target.Update,
// which is bit-identical to preparing the edited catalog.
type versionRefs struct {
	cats   []*catalog
	byName map[string]int
	pool   []*source

	mu      sync.Mutex
	handles [][2]*ctxmatch.Target
	results map[[3]int][]byte
}

func newVersionRefs(srv *service.Server, cats []*catalog, pool []*source) (*versionRefs, error) {
	v := &versionRefs{cats: cats, pool: pool, byName: map[string]int{},
		handles: make([][2]*ctxmatch.Target, len(cats)), results: map[[3]int][]byte{}}
	for i, c := range cats {
		t, ok := srv.Registry().Get(c.name)
		if !ok {
			return nil, fmt.Errorf("catalog %s not installed", c.name)
		}
		v.handles[i][0] = t
		v.byName[c.name] = i
	}
	return v, nil
}

// result returns the encoded Target.Match of source src against catalog
// cat at version ver.
func (v *versionRefs) result(src, cat, ver int) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	key := [3]int{src, cat, ver}
	if b, ok := v.results[key]; ok {
		return b, nil
	}
	ctx := context.Background()
	t := v.handles[cat][ver]
	if t == nil {
		delta, err := v.cats[cat].flipDelta(ver)
		if err != nil {
			return nil, err
		}
		if t, err = v.handles[cat][0].Update(ctx, delta); err != nil {
			return nil, err
		}
		v.handles[cat][ver] = t
	}
	res, err := t.Match(ctx, v.pool[src].schema)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	b = maskElapsed(b)
	v.results[key] = b
	return b, nil
}

// checkAnyBody verifies a match-any response served while catalogs
// change under it: every catalog was considered and none skipped, each
// returned result equals the reference for the version its generation
// names, and the ranking is score-descending, name-ascending.
func (v *versionRefs) checkAnyBody(src int, body []byte) error {
	var b anyBody
	if err := json.Unmarshal(body, &b); err != nil {
		return err
	}
	if b.Degraded || b.Considered != len(v.cats) || b.Matched != len(b.Catalogs) || len(b.Catalogs) == 0 {
		return fmt.Errorf("degraded=%v considered=%d matched=%d catalogs=%d",
			b.Degraded, b.Considered, b.Matched, len(b.Catalogs))
	}
	for i, c := range b.Catalogs {
		if i > 0 {
			p := b.Catalogs[i-1]
			if p.Score < c.Score || (p.Score == c.Score && strings.Compare(p.Name, c.Name) >= 0) {
				return fmt.Errorf("catalogs %s and %s out of rank order", p.Name, c.Name)
			}
		}
		cat, ok := v.byName[c.Name]
		if !ok {
			return fmt.Errorf("unknown catalog %q", c.Name)
		}
		ver, err := versionOf(c.Generation)
		if err != nil {
			return err
		}
		ref, err := v.result(src, cat, ver)
		if err != nil {
			return err
		}
		if !bytes.Equal(maskElapsed(c.Result), ref) {
			return fmt.Errorf("catalog %s generation %d: result differs from the version-%d reference", c.Name, c.Generation, ver)
		}
	}
	return nil
}

// catalogResult is one catalog's result inside a response.
type catalogResult struct {
	cat    *catalog
	result *ctxmatch.Result
}

// decodeResults extracts every catalog result of a correct response
// body.
func decodeResults(matchAny bool, cats []*catalog, body []byte) ([]catalogResult, error) {
	if !matchAny {
		var r ctxmatch.Result
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return []catalogResult{{cats[0], &r}}, nil
	}
	var b struct {
		Catalogs []struct {
			Name   string           `json:"name"`
			Result *ctxmatch.Result `json:"result"`
		} `json:"catalogs"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	var out []catalogResult
	for _, c := range b.Catalogs {
		for _, cat := range cats {
			if cat.name == c.Name {
				out = append(out, catalogResult{cat, c.Result})
			}
		}
	}
	return out, nil
}

// fMeasure is the paper's §5 F-measure of the results returned for each
// distinct source, averaged over a response's catalogs and then over
// sources. Each catalog result is scored against the gold standard of
// that catalog's layout: the source's configuration regenerated with
// Target set to the layout (the source itself does not depend on it).
func fMeasure(pool []*source, perSource map[int][]catalogResult) float64 {
	var sum float64
	var n int
	// Sources in pool order, so the sum — and the figure — repeats
	// bit for bit.
	for src := range pool {
		results := perSource[src]
		if len(results) == 0 {
			continue
		}
		var f float64
		for _, cr := range results {
			cfg := pool[src].cfg
			cfg.Target = cr.cat.cfg.Target
			f += datagen.Inventory(cfg).FMeasureEdges(cr.result.Matches)
		}
		sum += f / float64(len(results))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
