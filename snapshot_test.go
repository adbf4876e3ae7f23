package ctxmatch_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/datagen"
)

// snapshotFixtures are the three datagen layouts every snapshot
// property is checked against.
func snapshotFixtures() map[string]*datagen.Dataset {
	return map[string]*datagen.Dataset{
		"inventory": datagen.Inventory(datagen.InventoryConfig{
			Rows: 120, TargetRows: 150, Gamma: 4, Target: datagen.Ryan, Seed: 1,
		}),
		"inventory-scaled": datagen.Inventory(datagen.InventoryConfig{
			Rows: 80, TargetRows: 40, Gamma: 4, Target: datagen.Aaron, Seed: 2, Scale: 4,
		}),
		"grades": datagen.Grades(datagen.GradesConfig{
			Students: 60, Exams: 4, Sigma: 6, Seed: 1,
		}),
	}
}

// TestSnapshotRoundTripMatchesFreshPrepare is the snapshot subsystem's
// correctness bar: a Target restored from its own snapshot must produce
// Result edges byte-identical to the freshly-prepared handle — every
// confidence bit — across all three fixtures at 1 and 8 workers.
func TestSnapshotRoundTripMatchesFreshPrepare(t *testing.T) {
	for name, ds := range snapshotFixtures() {
		t.Run(name, func(t *testing.T) {
			type run struct{ workers int }
			for _, r := range []run{{1}, {8}} {
				m := mustNew(t,
					ctxmatch.WithParallelism(r.workers),
					ctxmatch.WithSeed(5),
				)
				prepared, err := m.Prepare(context.Background(), ds.Target)
				if err != nil {
					t.Fatalf("%+v: Prepare: %v", r, err)
				}
				var buf bytes.Buffer
				n, err := prepared.WriteSnapshot(&buf)
				if err != nil {
					t.Fatalf("%+v: WriteSnapshot: %v", r, err)
				}
				if n != int64(buf.Len()) {
					t.Errorf("%+v: WriteSnapshot reported %d bytes, wrote %d", r, n, buf.Len())
				}
				restored, err := ctxmatch.LoadTarget(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%+v: LoadTarget: %v", r, err)
				}

				fresh, err := prepared.Match(context.Background(), ds.Source)
				if err != nil {
					t.Fatalf("%+v: fresh Match: %v", r, err)
				}
				loaded, err := restored.Match(context.Background(), ds.Source)
				if err != nil {
					t.Fatalf("%+v: restored Match: %v", r, err)
				}
				want, got := renderResult(fresh), renderResult(loaded)
				if want == "" {
					t.Fatalf("%+v: empty result", r)
				}
				if got != want {
					t.Errorf("%+v: restored handle diverged:\n got: %s\nwant: %s",
						r, excerptDiff(got, want), excerptDiff(want, got))
				}

				fs, rs := prepared.Stats(), restored.Stats()
				if fs.RestoredFromSnapshot {
					t.Errorf("%+v: fresh handle claims RestoredFromSnapshot", r)
				}
				if fs.SnapshotBytes != 0 {
					t.Errorf("%+v: fresh handle reports SnapshotBytes=%d", r, fs.SnapshotBytes)
				}
				if !rs.RestoredFromSnapshot {
					t.Errorf("%+v: restored handle not marked RestoredFromSnapshot", r)
				}
				if rs.SnapshotBytes != buf.Len() {
					t.Errorf("%+v: restored SnapshotBytes=%d, want %d", r, rs.SnapshotBytes, buf.Len())
				}
				for _, cmp := range []struct {
					name      string
					want, got int
				}{
					{"Tables", fs.Tables, rs.Tables},
					{"Rows", fs.Rows, rs.Rows},
					{"Attributes", fs.Attributes, rs.Attributes},
					{"Classifiers", fs.Classifiers, rs.Classifiers},
					{"FeatureColumns", fs.FeatureColumns, rs.FeatureColumns},
					{"DictGrams", fs.DictGrams, rs.DictGrams},
					{"IndexPostings", fs.IndexPostings, rs.IndexPostings},
				} {
					if cmp.got != cmp.want {
						t.Errorf("%+v: restored %s=%d, want %d", r, cmp.name, cmp.got, cmp.want)
					}
				}
			}
		})
	}
}

// TestSnapshotDecoderStructuredErrors: every way a snapshot can be bad
// maps to its dedicated sentinel error, and none of them panics.
func TestSnapshotDecoderStructuredErrors(t *testing.T) {
	ds := snapshotFixtures()["inventory"]
	m := mustNew(t, ctxmatch.WithParallelism(2))
	prepared, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prepared.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	load := func(b []byte) error {
		_, err := ctxmatch.LoadTarget(bytes.NewReader(b))
		return err
	}
	if err := load(valid); err != nil {
		t.Fatalf("valid snapshot failed to load: %v", err)
	}

	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] = 'X'
		if err := load(bad); !errors.Is(err, ctxmatch.ErrSnapshotFormat) {
			t.Errorf("err = %v, want ErrSnapshotFormat", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[6] = 99
		if err := load(bad); !errors.Is(err, ctxmatch.ErrSnapshotVersion) {
			t.Errorf("err = %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)-1] ^= 0xff
		if err := load(bad); !errors.Is(err, ctxmatch.ErrSnapshotChecksum) {
			t.Errorf("err = %v, want ErrSnapshotChecksum", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		// Every prefix must produce a structured error, never a panic.
		for _, n := range []int{0, 1, 5, 15, 16, 40, 100, len(valid) / 2, len(valid) - 1} {
			if n >= len(valid) {
				continue
			}
			err := load(valid[:n])
			if err == nil {
				t.Errorf("%d-byte prefix loaded successfully", n)
				continue
			}
			if !errors.Is(err, ctxmatch.ErrSnapshotFormat) &&
				!errors.Is(err, ctxmatch.ErrSnapshotTruncated) &&
				!errors.Is(err, ctxmatch.ErrSnapshotChecksum) &&
				!errors.Is(err, ctxmatch.ErrSnapshotVersion) {
				t.Errorf("%d-byte prefix: unstructured error %v", n, err)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if err := load(nil); !errors.Is(err, ctxmatch.ErrSnapshotTruncated) {
			t.Errorf("err = %v, want ErrSnapshotTruncated", err)
		}
	})
}

// allocBytes reports the bytes f allocates per call, averaged over runs
// calls. TotalAlloc counts every goroutine, so callers must not run in
// parallel with other tests.
func allocBytes(runs int, f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

// writeAllocBudget bounds what writing the 10k-row catalog's snapshot
// may allocate: a quarter of the 36,866,034 bytes its format-1
// snapshot took, the bound this gate held while the snapshot still
// carried the likelihood table.
const writeAllocBudget = 36_866_034 / 4

// TestSnapshotCopyCounters gates snapshot I/O on the 10k-row catalog
// by the bytes it allocates, which no hardware moves. Writing the
// snapshot into io.Discard allocates under writeAllocBudget: the bulk
// tables go out by reference, not through intermediate buffers.
// Loading it from a file allocates within 64 KiB of loading it from
// memory: both read into one buffer sized up front.
func TestSnapshotCopyCounters(t *testing.T) {
	ds := datagen.Inventory(inventory10k)
	prepared, err := mustNew(t, ctxmatch.WithParallelism(1)).Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prepared.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	path := filepath.Join(t.TempDir(), "catalog.snap")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	const runs = 3
	write := allocBytes(runs, func() {
		_, err := prepared.WriteSnapshot(io.Discard)
		check(err)
	})
	fromMemory := allocBytes(runs, func() {
		_, err := ctxmatch.LoadTarget(bytes.NewReader(snap))
		check(err)
	})
	fromFile := allocBytes(runs, func() {
		f, err := os.Open(path)
		check(err)
		defer f.Close()
		_, err = ctxmatch.LoadTarget(f)
		check(err)
	})
	t.Logf("%d-byte snapshot: write allocates %d, load from memory %d, from a file %d", len(snap), write, fromMemory, fromFile)
	if write >= writeAllocBudget {
		t.Errorf("writing a %d-byte snapshot allocates %d bytes, want under %d", len(snap), write, writeAllocBudget)
	}
	if d := fromFile - fromMemory; d > 64<<10 {
		t.Errorf("loading from a file allocates %d bytes more than from memory, want at most 64 KiB", d)
	}
}
