package main

import (
	"testing"
	"time"
)

func TestVersionOfGenerationParity(t *testing.T) {
	for gen, want := range map[int]int{1: 0, 2: 1, 3: 0, 4: 1, 101: 0} {
		if v, err := versionOf(gen); err != nil || v != want {
			t.Errorf("versionOf(%d) = %d, %v; want %d", gen, v, err, want)
		}
	}
	if _, err := versionOf(0); err == nil {
		t.Error("versionOf(0) succeeded; generations start at 1")
	}
}

func TestWriteChainFlipsVersions(t *testing.T) {
	c := newWriteChain(2)
	// Writes to catalog 0 alternate versions 1, 0, 1; catalog 1's first
	// write is its own generation 2.
	var ops []*op
	for _, cat := range []int{0, 0, 1, 0} {
		ops = append(ops, c.write(cat, time.Duration(len(ops))))
	}
	for i, w := range []struct{ gen, ver int }{{2, 1}, {3, 0}, {2, 1}, {4, 1}} {
		if ops[i].gen != w.gen || ops[i].ver != w.ver {
			t.Errorf("write %d: generation %d version %d, want %d %d", i, ops[i].gen, ops[i].ver, w.gen, w.ver)
		}
	}
	// Each write waits for the previous write to its own catalog only.
	select {
	case <-ops[2].prev:
	default:
		t.Error("first write to catalog 1 waits for another catalog's write")
	}
	select {
	case <-ops[1].prev:
		t.Error("second write to catalog 0 does not wait for the first")
	default:
	}
	close(ops[0].done)
	<-ops[1].prev
}

func TestMaskElapsed(t *testing.T) {
	in := `{"catalogs":[{"result":{"version":1,"elapsed_ns":123456,"matches":[]}},{"result":{"version":1,"elapsed_ns":7,"matches":[{"v":"\"elapsed_ns\":9"}]}}]}` + "\n"
	want := `{"catalogs":[{"result":{"version":1,"elapsed_ns":0,"matches":[]}},{"result":{"version":1,"elapsed_ns":0,"matches":[{"v":"\"elapsed_ns\":9"}]}}]}` + "\n"
	if got := string(maskElapsed([]byte(in))); got != want {
		t.Errorf("maskElapsed =\n%s\nwant\n%s", got, want)
	}
}
