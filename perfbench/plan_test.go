package main

import "testing"

// testRun is a run context whose catalogs carry only their place in the
// roster and whether they are the enterprise catalog: plan needs nothing
// else of them.
func testRun(name string, nCats, big int) *runCtx {
	r := &runCtx{seed: 3, secs: 45}
	for _, w := range workloads {
		if w.name == name {
			r.w = w
		}
	}
	for i := range nCats {
		r.cats = append(r.cats, &catalog{big: i == big})
	}
	return r
}

// TestChurnPlanPercentilesLandInsideModes pins the schedule properties
// churn's write percentiles rely on: after the rounds cut the open-loop
// writes, every eighth still goes to the enterprise catalog, so the 90th
// percentile falls among those slow writes rather than on the edge
// between them and the fast ones; and every write is due together with
// a read, which is sent first.
func TestChurnPlanPercentilesLandInsideModes(t *testing.T) {
	r := testRun("churn", 32, 7)
	p := r.plan(true)
	if len(p.rounds) != rounds {
		t.Fatalf("%d rounds, want %d", len(p.rounds), rounds)
	}
	var reads, writes, bigWrites int
	for k, rd := range p.rounds {
		for i, o := range rd.open {
			if o.kind == opRead {
				reads++
				continue
			}
			if big := r.cats[o.cat].big; big != (writes%8 == 7) {
				t.Errorf("round %d: open-loop write %d goes to the enterprise catalog: %v, want every eighth", k, writes, big)
			} else if big {
				bigWrites++
			}
			writes++
			if i == 0 || rd.open[i-1].kind != opRead || rd.open[i-1].due != o.due {
				t.Errorf("round %d: write due at %v is not due together with a read sent just before it", k, o.due)
			}
		}
		if len(rd.closedWrites) == 0 {
			t.Errorf("round %d has no closed-loop writes", k)
		}
	}
	if _, beyond := quantile(make([]float64, reads), 0.95); beyond < minBeyond {
		t.Errorf("%d open-loop reads leave %d beyond the 95th percentile", reads, beyond)
	}
	_, beyond := quantile(make([]float64, writes), 0.90)
	if beyond < minBeyond {
		t.Errorf("%d open-loop writes leave %d beyond the 90th percentile", writes, beyond)
	}
	if bigWrites != writes/8 {
		t.Errorf("%d of %d open-loop writes go to the enterprise catalog, want %d", bigWrites, writes, writes/8)
	}
	if bigWrites <= beyond {
		t.Errorf("%d enterprise writes do not reach past the %d writes beyond the 90th percentile", bigWrites, beyond)
	}
}

// TestCatalogMatchPlanSpreadsWrites checks that catalog-match's writes
// run as equal bursts, one per round, and that the traced plan replays
// the served one's open-loop reads.
func TestCatalogMatchPlanSpreadsWrites(t *testing.T) {
	r := testRun("catalog-match", 1, -1)
	served, traced := r.plan(true), r.plan(false)
	total := 0
	for k, rd := range served.rounds {
		if n := len(rd.writes); n != writePhaseOps/rounds {
			t.Errorf("round %d bursts %d writes, want %d", k, n, writePhaseOps/rounds)
		}
		total += len(rd.writes)
		if len(rd.closedWrites) != 0 {
			t.Errorf("round %d writes during the closed loop", k)
		}
		for i, o := range rd.open {
			if o.kind != opRead {
				t.Fatalf("round %d: open-loop op %d is a write", k, i)
			}
			if to := traced.rounds[k].open[i]; to.src != o.src || to.due != o.due {
				t.Fatalf("round %d: traced op %d differs from the served one", k, i)
			}
		}
	}
	if total != writePhaseOps {
		t.Errorf("%d writes in all, want %d", total, writePhaseOps)
	}
}
