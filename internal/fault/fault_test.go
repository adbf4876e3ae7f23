package fault

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Set("x", Plan{FailNth: 1, Every: true})
	r.Clear("x")
	if err := r.Fail("x"); err != nil {
		t.Fatalf("nil registry injected an error: %v", err)
	}
	if got := r.Hits("x"); got != 0 {
		t.Fatalf("nil registry counted hits: %d", got)
	}
	fs := Inject(OS{}, nil)
	if _, ok := fs.(OS); !ok {
		t.Fatalf("Inject with nil registry should return the FS unwrapped, got %T", fs)
	}
}

func TestFailNth(t *testing.T) {
	r := new(Registry)
	r.Set("p", Plan{FailNth: 3})
	var outcomes []bool
	for i := 0; i < 6; i++ {
		outcomes = append(outcomes, r.Fail("p") != nil)
	}
	want := []bool{false, false, true, false, false, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("hit %d: fired=%v, want %v (outcomes %v)", i+1, outcomes[i], want[i], outcomes)
		}
	}
	if got := r.Hits("p"); got != 6 {
		t.Fatalf("Hits = %d, want 6", got)
	}
}

func TestFailEveryNth(t *testing.T) {
	r := new(Registry)
	r.Set("p", Plan{FailNth: 2, Every: true})
	var fired int
	for i := 0; i < 10; i++ {
		if r.Fail("p") != nil {
			fired++
		}
	}
	if fired != 5 {
		t.Fatalf("every-2nd over 10 hits fired %d times, want 5", fired)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []bool {
		r := new(Registry)
		r.Set("p", Plan{FailNth: 3, Every: true})
		var out []bool
		for i := 0; i < 12; i++ {
			out = append(out, r.Fail("p") != nil)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverged at hit %d: %v vs %v", i+1, a, b)
		}
	}
}

func TestCustomErrorAndClear(t *testing.T) {
	r := new(Registry)
	// The zero value is usable before its first Set.
	r.Clear("p")
	if err := r.Fail("p"); err != nil || r.Hits("p") != 0 {
		t.Fatalf("empty registry: Fail = %v, Hits = %d", err, r.Hits("p"))
	}
	sentinel := errors.New("disk on fire")
	r.Set("p", Plan{FailNth: 1, Every: true, Err: sentinel})
	if err := r.Fail("p"); !errors.Is(err, sentinel) {
		t.Fatalf("Fail = %v, want %v", err, sentinel)
	}
	r.Clear("p")
	if err := r.Fail("p"); err != nil {
		t.Fatalf("Fail after Clear = %v, want nil", err)
	}
	if got := r.Hits("p"); got != 0 {
		t.Fatalf("Hits after Clear = %d, want 0", got)
	}
}

func TestLatencyInjection(t *testing.T) {
	r := new(Registry)
	r.Set("p", Plan{Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := r.Fail("p"); err != nil {
		t.Fatalf("latency-only plan should not fire: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency not applied: took %v", d)
	}
}

func TestTornWriteThroughFS(t *testing.T) {
	dir := t.TempDir()
	r := new(Registry)
	r.Set("fs.write", Plan{FailNth: 1, TornAfter: 4})
	fs := Inject(OS{}, r)

	f, err := fs.CreateTemp(dir, "torn-*")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	n, err := f.Write([]byte("hello, world"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Write err = %v, want ErrInjected", err)
	}
	if n != 4 {
		t.Fatalf("torn write reported %d bytes, want 4", n)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "hell" {
		t.Fatalf("file holds %q after torn write, want the 4-byte prefix", got)
	}
}

func TestShortReadThroughFS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := new(Registry)
	r.Set("fs.read", Plan{FailNth: 1, ShortRead: 3, Err: io.ErrUnexpectedEOF})
	fs := Inject(OS{}, r)

	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Read err = %v, want ErrUnexpectedEOF", err)
	}
	if n != 3 || string(buf[:3]) != "012" {
		t.Fatalf("short read returned %d bytes %q, want 3 bytes \"012\"", n, buf[:n])
	}
}

func TestSyncAndDirFaults(t *testing.T) {
	dir := t.TempDir()
	r := new(Registry)
	r.Set("fs.sync", Plan{FailNth: 1, Every: true})
	r.Set("fs.syncdir", Plan{FailNth: 1, Every: true})
	fs := Inject(OS{}, r)

	f, err := fs.CreateTemp(dir, "s-*")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync err = %v, want ErrInjected", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("SyncDir err = %v, want ErrInjected", err)
	}
}

func TestOSSyncDir(t *testing.T) {
	if err := (OS{}).SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := (OS{}).SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory should error")
	}
}
