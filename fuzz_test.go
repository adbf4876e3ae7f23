package ctxmatch_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"ctxmatch"
)

// FuzzLoadTarget is the decoder-robustness property of the snapshot
// subsystem: arbitrary bytes must either load into a usable handle or
// fail with an error — never panic. Every count in the format is
// bounds-checked against the remaining payload before any allocation,
// so decoding allocates at most a small multiple of the input's own
// size; a successful load may then allocate what preparing the carried
// schema would, the Naive Bayes likelihood table (grams × labels × 8
// bytes) chief among it. The seed corpus is one valid format-2 snapshot
// per datagen layout, so mutation explores the format's interior, not
// just its magic check, plus the committed format-1 golden file, so the
// re-prepare path of a format-1 load is fuzzed too. Every successful
// load is updated once — its first table replaced with itself — so the
// merge-order replay of a restored handle meets the mutated content.
func FuzzLoadTarget(f *testing.F) {
	for name, ds := range snapshotFixtures() {
		m, err := ctxmatch.New(ctxmatch.WithParallelism(2))
		if err != nil {
			f.Fatalf("%s: New: %v", name, err)
		}
		prepared, err := m.Prepare(context.Background(), ds.Target)
		if err != nil {
			f.Fatalf("%s: Prepare: %v", name, err)
		}
		var buf bytes.Buffer
		if _, err := prepared.WriteSnapshot(&buf); err != nil {
			f.Fatalf("%s: WriteSnapshot: %v", name, err)
		}
		f.Add(buf.Bytes())
	}
	v1, err := os.ReadFile("internal/snapshot/testdata/v1-small.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add([]byte("CTXSNP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		target, err := ctxmatch.LoadTarget(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A load that succeeds must hand back a usable handle: stats and
		// schema introspection exercise every restored artifact surface
		// without the cost of a full match per input.
		st := target.Stats()
		if !st.RestoredFromSnapshot {
			t.Errorf("loaded handle not marked restored")
		}
		if st.SnapshotBytes != len(data) {
			t.Errorf("SnapshotBytes = %d, want %d", st.SnapshotBytes, len(data))
		}
		schema := target.Schema()
		_ = schema.TableNames()
		if len(schema.Tables) == 0 {
			return
		}
		first := schema.Tables[0]
		delta := ctxmatch.CatalogDelta{Replace: []*ctxmatch.Table{{Name: first.Name, Attrs: first.Attrs, Rows: first.Rows}}}
		if _, err := target.Update(context.Background(), delta); err != nil && first.Name != "" {
			t.Errorf("replacing table %q with itself: %v", first.Name, err)
		}
	})
}
