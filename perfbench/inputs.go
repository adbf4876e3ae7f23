package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/service"
)

// poolSize is the number of distinct sources every workload draws from:
// Rows {60, 120, 240} × γ {4, 8} × extra attributes {0, 4} × distractor
// tables {on, off}. These are the properties the matcher's cost depends
// on: sample size drives classifier and view work, γ the §3.2 view
// families, extra attributes the candidate pairs, distractors the table
// count.
const poolSize = 24

// source is one generated request source: its datagen configuration
// (regenerated with another Target layout to score results against that
// layout's gold), the two request bodies, and the schema decoded from
// the body exactly as the server decodes it.
type source struct {
	cfg       datagen.InventoryConfig
	matchBody []byte // POST /v1/catalogs/{name}/match
	anyBody   []byte // POST /v1/match-any
	schema    *ctxmatch.Schema
}

// sourcePool generates the 24 sources, each configuration at its own
// fixed seed. The pool does not depend on the workload seed — which
// orders the requests — so a source's answer, and the F-measure over the
// pool, repeat exactly from run to run.
func sourcePool() ([]*source, error) {
	var cfgs []datagen.InventoryConfig
	for _, rows := range []int{60, 120, 240} {
		for _, gamma := range []int{4, 8} {
			for _, extra := range []int{0, 4} {
				for _, noDistractors := range []bool{false, true} {
					cfgs = append(cfgs, datagen.InventoryConfig{
						Rows: rows, TargetRows: 1, Gamma: gamma, ExtraAttrs: extra,
						NoDistractors: noDistractors, Target: datagen.Ryan,
						Seed: int64(1000 + len(cfgs)),
					})
				}
			}
		}
	}
	out := make([]*source, len(cfgs))
	for i, cfg := range cfgs {
		doc, err := service.DocFromSchema(datagen.Inventory(cfg).Source)
		if err != nil {
			return nil, err
		}
		s := &source{cfg: cfg}
		if s.matchBody, err = json.Marshal(map[string]any{"source": doc}); err != nil {
			return nil, err
		}
		if s.anyBody, err = json.Marshal(service.MatchAnyRequest{Source: doc}); err != nil {
			return nil, err
		}
		// The server names a document-carried schema after the document;
		// decoding the body here guarantees the reference sees the same
		// values the server parses.
		var req service.MatchAnyRequest
		if err := json.Unmarshal(s.anyBody, &req); err != nil {
			return nil, err
		}
		if s.schema, err = req.Source.Build("source"); err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// catalog is one installed catalog: its registry name, the layout its
// gold standard is drawn from, the PUT body, and the two PATCH bodies
// that flip its first table between version 0 (all rows) and version 1
// (all but the last row).
type catalog struct {
	name string
	cfg  datagen.InventoryConfig
	put  []byte
	flip [2][]byte
	big  bool // the 10k-row enterprise catalog
}

// enterprise10k is the at-scale floor: 10k rows over 20 tables, the
// base Ryan pair plus nine more pairs cycling the three layouts.
var enterprise10k = datagen.InventoryConfig{
	Rows: 120, TargetRows: 500, Gamma: 4, Scale: 10, ExtraAttrs: 4,
	NoDistractors: true, Target: datagen.Ryan, Seed: 1,
}

// fleetRoster is the 32-catalog match-any fleet: an 8-catalog core that
// includes the enterprise catalog, plus 24 small catalogs cycling the
// three layouts.
func fleetRoster() []datagen.InventoryConfig {
	specs := []datagen.InventoryConfig{
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 11},
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Barrett, Seed: 21},
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 31},
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 32, NoDistractors: true},
		{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 12, ExtraAttrs: 2},
		{Rows: 80, TargetRows: 40, Gamma: 4, Target: datagen.Aaron, Seed: 2, Scale: 4},
		{Rows: 80, TargetRows: 60, Gamma: 6, Target: datagen.Barrett, Seed: 22},
		enterprise10k,
	}
	for i := len(specs); i < 32; i++ {
		specs = append(specs, datagen.InventoryConfig{
			Rows: 80, TargetRows: 60, Gamma: 4,
			Target: datagen.AllTargets[i%len(datagen.AllTargets)], Seed: int64(100 + i),
		})
	}
	return specs
}

// buildCatalogs generates the catalogs of specs under name-prefixed,
// zero-padded names (so name order is roster order).
func buildCatalogs(prefix string, specs []datagen.InventoryConfig) ([]*catalog, error) {
	out := make([]*catalog, len(specs))
	for i, cfg := range specs {
		ds := datagen.Inventory(cfg)
		c := &catalog{name: fmt.Sprintf("%s%02d", prefix, i), cfg: cfg, big: cfg.Scale >= 10}
		if len(specs) == 1 {
			c.name = prefix
		}
		doc, err := service.DocFromSchema(ds.Target)
		if err != nil {
			return nil, err
		}
		if c.put, err = json.Marshal(doc); err != nil {
			return nil, err
		}
		first := ds.Target.Tables[0]
		short := &ctxmatch.Table{Name: first.Name, Attrs: first.Attrs, Rows: first.Rows[:len(first.Rows)-1]}
		for v, t := range []*ctxmatch.Table{first, short} {
			var b strings.Builder
			if err := t.WriteCSV(&b); err != nil {
				return nil, err
			}
			body, err := json.Marshal(service.CatalogDeltaDoc{
				Replace: []service.TableDoc{{Name: t.Name, CSV: b.String()}},
			})
			if err != nil {
				return nil, err
			}
			c.flip[v] = body
		}
		out[i] = c
	}
	return out, nil
}

// flipDelta decodes a catalog's version-v PATCH body into the delta the
// server applies.
func (c *catalog) flipDelta(v int) (ctxmatch.CatalogDelta, error) {
	var doc service.CatalogDeltaDoc
	if err := json.Unmarshal(c.flip[v], &doc); err != nil {
		return ctxmatch.CatalogDelta{}, err
	}
	return doc.Build()
}

// readOrder is the request sequence over the pool: back-to-back seeded
// permutations, so every source appears equally often in any window of
// poolSize requests.
func readOrder(rng *rand.Rand, n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		out = append(out, rng.Perm(poolSize)...)
	}
	return out[:n]
}

// writeOrder is the catalog sequence of a write schedule: every eighth
// write goes to the enterprise catalog (when the fleet has one besides
// others), the rest rotate over the other catalogs in seeded
// permutations.
func writeOrder(rng *rand.Rand, cats []*catalog, n int) []int {
	big := -1
	var others []int
	for i, c := range cats {
		if c.big && len(cats) > 1 {
			big = i
			continue
		}
		others = append(others, i)
	}
	out := make([]int, 0, n)
	var perm []int
	for k := 0; k < n; k++ {
		if big >= 0 && k%8 == 7 {
			out = append(out, big)
			continue
		}
		if len(perm) == 0 {
			perm = make([]int, len(others))
			for i, j := range rng.Perm(len(others)) {
				perm[i] = others[j]
			}
		}
		out = append(out, perm[0])
		perm = perm[1:]
	}
	return out
}
