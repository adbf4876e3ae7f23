package ctxmatch_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"ctxmatch"
)

// reversedSource returns a copy of src with its tables in reverse order
// and each table's attributes reversed, every row permuted with them:
// the same relations, laid out differently.
func reversedSource(src *ctxmatch.Schema) *ctxmatch.Schema {
	out := ctxmatch.NewSchema(src.Name)
	for _, t := range slices.Backward(src.Tables) {
		rt := &ctxmatch.Table{Name: t.Name, Attrs: slices.Clone(t.Attrs)}
		slices.Reverse(rt.Attrs)
		for _, row := range t.Rows {
			r := slices.Clone(row)
			slices.Reverse(r)
			rt.Rows = append(rt.Rows, r)
		}
		out.Tables = append(out.Tables, rt)
	}
	return out
}

// edgeSet renders a result's selected matches as sorted (source,
// attribute, target, attribute, condition, confidence) keys, the
// confidence by its bit pattern — what a match means, independent of
// the order the edges were found in.
func edgeSet(res *ctxmatch.Result) []string {
	keys := make([]string, len(res.Matches))
	for i, e := range res.Matches {
		keys[i] = fmt.Sprintf("%s|%s.%s -> %s|%s.%s where %v conf=%016x",
			e.Source.Base, e.Source.Name, e.SourceAttr, e.Target.Base, e.Target.Name, e.TargetAttr,
			e.Cond, math.Float64bits(e.Confidence))
	}
	slices.Sort(keys)
	return keys
}

// TestSourceLayoutInvariance is a metamorphic property of §3's
// semantics: a contextual match relates attributes and rows, not
// positions, so reversing the source's table order and each table's
// attribute order (rows permuted with them) must leave the selected
// matches unchanged — every edge, condition and confidence bit. It
// covers the three datagen layouts and a six-table source.
func TestSourceLayoutInvariance(t *testing.T) {
	type fixture struct{ source, target *ctxmatch.Schema }
	fixtures := map[string]fixture{}
	for name, ds := range snapshotFixtures() {
		fixtures[name] = fixture{ds.Source, ds.Target}
	}
	src, tgt := multiInventory(t, 2)
	fixtures["multi-table"] = fixture{src, tgt}
	for name, f := range fixtures {
		t.Run(name, func(t *testing.T) {
			prepared, err := mustNew(t, ctxmatch.WithParallelism(2), ctxmatch.WithSeed(5)).Prepare(context.Background(), f.target)
			if err != nil {
				t.Fatal(err)
			}
			want, err := prepared.Match(context.Background(), f.source)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Matches) == 0 {
				t.Fatal("no matches to compare")
			}
			got, err := prepared.Match(context.Background(), reversedSource(f.source))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := edgeSet(got), edgeSet(want); !slices.Equal(g, w) {
				t.Errorf("reversing the source layout changed the matches:\n got: %q\nwant: %q", g, w)
			}
		})
	}
}
