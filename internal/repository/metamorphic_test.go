package repository

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/relational"
)

// resultBytes renders a Result as its wire JSON with the wall-clock
// Elapsed cleared: everything a match decided, nothing it measured.
func resultBytes(t *testing.T, res *ctxmatch.Result) string {
	t.Helper()
	c := *res
	c.Elapsed = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// rankedBytes renders a report's ranking — names, generations,
// evidence, scores and full results — for whole-ranking comparison.
func rankedBytes(t *testing.T, rep *Report) string {
	t.Helper()
	type ranked struct {
		Name       string
		Generation int
		Evidence   float64
		Score      float64
		Result     string
	}
	out := make([]ranked, len(rep.Ranked))
	for i, cm := range rep.Ranked {
		out[i] = ranked{cm.Name, cm.Generation, cm.Evidence, cm.Score, resultBytes(t, cm.Result)}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cloneSchema copies a schema table by table and row by row, so a
// catalog prepared from the copy shares no pointer with the original.
func cloneSchema(s *relational.Schema) *relational.Schema {
	tables := make([]*relational.Table, len(s.Tables))
	for i, tt := range s.Tables {
		nt := relational.NewTable(tt.Name, tt.Attrs...)
		for _, row := range tt.Rows {
			nt.Append(append(relational.Tuple(nil), row...))
		}
		tables[i] = nt
	}
	return relational.NewSchema(s.Name, tables...)
}

// TestMatchAnyDuplicateCatalogTies: a byte-identical catalog prepared
// again and installed under a second name ties its original — same
// evidence, same score, byte-identical result — and the tie ranks the
// two by name, adjacent, at every k where both survive.
func TestMatchAnyDuplicateCatalogTies(t *testing.T) {
	fx := sharedFleet(t)
	ds := fx.datasets["aaron-1"]
	m, err := ctxmatch.New(ctxmatch.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := m.Prepare(context.Background(), cloneSchema(ds.Target))
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, 1)
	f.Installed("aaron-1-twin", len(fleetSpecs)+1, twin)
	// k = the catalog count matches everything; the twin's place in
	// that retrieval order is the smallest k where both survive.
	all := len(fleetSpecs) + 1
	full, err := f.MatchAny(context.Background(), ds.Source, Query{K: all})
	if err != nil {
		t.Fatal(err)
	}
	least := 0
	for i, cs := range full.Retrieval {
		if cs.Name == "aaron-1-twin" {
			least = i + 1
		}
	}
	if least == 0 {
		t.Fatalf("twin missing from the retrieval scores: %+v", full.Retrieval)
	}
	for _, k := range []int{least, all} {
		rep, err := f.MatchAny(context.Background(), ds.Source, Query{K: k})
		if err != nil {
			t.Fatal(err)
		}
		pos := map[string]int{}
		for i, cm := range rep.Ranked {
			pos[cm.Name] = i
		}
		i, okA := pos["aaron-1"]
		j, okB := pos["aaron-1-twin"]
		if !okA || !okB {
			t.Fatalf("k=%d: original or twin did not survive: %v", k, pos)
		}
		if j != i+1 {
			t.Fatalf("k=%d: original ranked %d, twin %d; want the twin right after it", k, i, j)
		}
		a, b := rep.Ranked[i], rep.Ranked[j]
		if a.Score != b.Score || a.Evidence != b.Evidence {
			t.Errorf("k=%d: original score %v evidence %v, twin %v / %v", k, a.Score, a.Evidence, b.Score, b.Evidence)
		}
		if resultBytes(t, a.Result) != resultBytes(t, b.Result) {
			t.Errorf("k=%d: twin's result differs from the original's", k)
		}
	}
}

// TestMatchAnyInstallOrderInvariant: the order catalogs were installed
// in is not an input of match-any. Over six seeded permutations of the
// install order, k of 1 and 3 and three sources, the ranking — every
// survivor's name, generation, evidence, score and result — equals the
// one of the fleet installed in name order.
func TestMatchAnyInstallOrderInvariant(t *testing.T) {
	fx := sharedFleet(t)
	base := newTestFleet(t, 1)
	rng := rand.New(rand.NewSource(13))
	perms := make([][]int, 6)
	for i := range perms {
		perms[i] = rng.Perm(len(fleetSpecs))
	}
	fleets := make([]*Fleet, len(perms))
	for p, perm := range perms {
		fleets[p] = NewFleet()
		for _, i := range perm {
			spec := fleetSpecs[i]
			fleets[p].Installed(spec.name, i+1, fx.targets[spec.name].WithParallelism(1))
		}
	}
	for _, srcName := range []string{"aaron-2", "barrett-1", "ryan-10k"} {
		src := fx.datasets[srcName].Source
		for _, k := range []int{1, 3} {
			want, err := base.MatchAny(context.Background(), src, Query{K: k})
			if err != nil {
				t.Fatal(err)
			}
			wantRanked := rankedBytes(t, want)
			for p, f := range fleets {
				got, err := f.MatchAny(context.Background(), src, Query{K: k})
				if err != nil {
					t.Fatal(err)
				}
				if got.Considered != want.Considered || got.Matched != want.Matched {
					t.Errorf("%s k=%d perm %v: considered/matched %d/%d, want %d/%d",
						srcName, k, perms[p], got.Considered, got.Matched, want.Considered, want.Matched)
				}
				if rankedBytes(t, got) != wantRanked {
					t.Errorf("%s k=%d perm %v: ranking differs from name-order install", srcName, k, perms[p])
				}
			}
		}
	}
}
