package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op.read", Layer: "bench", Start: 0, End: 100},
		// Nested: a child with a grandchild.
		{ID: 2, Parent: 1, Op: 1, Layer: "service", Start: 10, End: 40},
		{ID: 3, Parent: 2, Op: 1, Layer: "ctxmatch", Start: 15, End: 25},
		// Overlapping siblings cover [50, 80] once.
		{ID: 4, Parent: 1, Op: 1, Layer: "ctxmatch", Start: 50, End: 70},
		{ID: 5, Parent: 1, Op: 1, Layer: "ctxmatch", Start: 60, End: 80},
		// A child running past its parent is subtracted only inside it.
		{ID: 6, Parent: 1, Op: 1, Layer: "service", Start: 95, End: 120},
	}
	got := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 30 - 30 - 5, // children cover [10,40], [50,80], [95,100]
		2: 30 - 10,
		3: 10,
		4: 20,
		5: 20,
		6: 25,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestLayerBreakdownSumsToOpDuration(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op.read", Layer: "bench", Start: 0, End: 1000000},
		{ID: 2, Parent: 1, Op: 1, Name: "service.decode", Layer: "service", Start: 0, End: 100000},
		{ID: 3, Parent: 1, Op: 1, Name: "repository.match_any", Layer: "repository", Start: 100000, End: 900000},
		{ID: 4, Parent: 1, Op: 1, Name: "service.encode", Layer: "service", Start: 900000, End: 990000},
	}
	anyOps := []anyOp{{op: 1, src: 3, ns: 800000, survivors: []string{"a", "b"}}}
	sr := &seqResult{matchNS: map[srcCat]int64{{3, "a"}: 200000, {3, "b"}: 300000}}
	byKind, retrieve, bad := layerBreakdown(spans, anyOps, sr)
	if bad != 0 {
		t.Fatalf("%d ops do not sum to their duration", bad)
	}
	m := byKind["op.read"]
	want := map[string]float64{"bench": 0.01, "service": 0.19, "repository": 0.3, "ctxmatch": 0.5}
	var total float64
	for l, w := range want {
		if d := m[l] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("layer %s = %v ms, want %v", l, m[l], w)
		}
		total += m[l]
	}
	if total != 1 {
		t.Errorf("layer self times sum to %v ms, want the op's 1 ms", total)
	}
	if len(retrieve) != 1 || retrieve[0] != 0.3 {
		t.Errorf("derived retrieval = %v, want [0.3]", retrieve)
	}
}
