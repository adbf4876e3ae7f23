package repository

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/match"
)

// fusedScores runs the fused retrieval pass under the fleet's read
// lock, the way MatchAny drives it.
func fusedScores(f *Fleet, src *match.SourceFeatures, k int, minScore float64) []CatalogScore {
	f.mu.RLock()
	defer f.mu.RUnlock()
	scores, _ := f.fusedRetrieve(f.entriesLocked(), src, k, minScore, time.Time{})
	return scores
}

// TestFusedRetrieveAgreesWithLegacy is the fused index's A/B property
// against the per-catalog retrieval path: for every source and every k,
// the ranked survivor prefix must be identical (same catalogs, bitwise
// the same evidence), and any catalog the two passes disagree about
// pruning must sit strictly below the k-th best exact evidence — the
// only freedom the fused visit order is allowed.
func TestFusedRetrieveAgreesWithLegacy(t *testing.T) {
	f := newTestFleet(t, 1)
	entries := f.Entries()
	for _, srcName := range []string{"aaron-1", "aaron-scaled", "barrett-2", "ryan-1", "ryan-10k"} {
		src := match.FeaturizeSource(sharedFleet(t).datasets[srcName].Source, 1)
		// Unpruned pass: exact evidence for every catalog.
		full := retrieve(entries, src, len(entries), 0, time.Time{})
		exact := map[string]float64{}
		for _, cs := range full {
			exact[cs.Name] = cs.Evidence
		}
		for _, k := range []int{1, 2, 3, len(entries)} {
			legacy := retrieve(entries, src, k, 0, time.Time{})
			fused := fusedScores(f, src, k, 0)
			if len(fused) != len(legacy) {
				t.Fatalf("%s k=%d: fused scored %d catalogs, legacy %d", srcName, k, len(fused), len(legacy))
			}
			kth := full[min(k, len(full))-1].Evidence
			for i := 0; i < k && i < len(fused); i++ {
				if fused[i].Pruned {
					break
				}
				if fused[i].Name != legacy[i].Name || fused[i].Evidence != legacy[i].Evidence {
					t.Errorf("%s k=%d rank %d: fused %s/%v, legacy %s/%v",
						srcName, k, i, fused[i].Name, fused[i].Evidence, legacy[i].Name, legacy[i].Evidence)
				}
			}
			for _, cs := range fused {
				if cs.Pruned {
					if exact[cs.Name] >= kth {
						t.Errorf("%s k=%d: fused pruned %s but exact evidence %v ≥ kth %v",
							srcName, k, cs.Name, exact[cs.Name], kth)
					}
					continue
				}
				if cs.Evidence != exact[cs.Name] {
					t.Errorf("%s k=%d: fused %s evidence %v, want exact %v",
						srcName, k, cs.Name, cs.Evidence, exact[cs.Name])
				}
			}
		}
	}
}

// TestFusedIndexTracksRandomTraces drives random install / update /
// evict traces — the operations the registry observer forwards — and
// after every trace compares MatchAny end-to-end between the churned
// fleet (whose fused index lived through tombstoning and compaction)
// and a from-scratch fleet over the surviving state: same winner, same
// bit-identical winning edges, same survivor evidence. Odd-numbered
// trials use a compaction threshold of 1 (compact on every evict) and
// even ones the default, so both the eager and the lazy tombstone
// regimes are exercised.
func TestFusedIndexTracksRandomTraces(t *testing.T) {
	fx := sharedFleet(t)
	names := make([]string, 0, len(fleetSpecs))
	for _, spec := range fleetSpecs {
		names = append(names, spec.name)
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		threshold := 0
		if trial%2 == 1 {
			threshold = 1
		}
		live := newFleetCompact(threshold)
		type state struct {
			gen int
			tgt *ctxmatch.Target
		}
		want := map[string]state{}
		gen := 0
		for op := 0; op < 25; op++ {
			name := names[rng.Intn(len(names))]
			if rng.Intn(3) == 0 {
				live.Removed(name)
				delete(want, name)
				continue
			}
			gen++ // fresh generation: an install or a PATCH-style swap
			tgt := fx.targets[name]
			live.Installed(name, gen, tgt)
			want[name] = state{gen, tgt}
		}
		if len(want) == 0 {
			live.Installed("aaron-1", gen+1, fx.targets["aaron-1"])
			want["aaron-1"] = state{gen + 1, fx.targets["aaron-1"]}
		}
		rebuilt := newFleetCompact(threshold)
		for name, st := range want {
			rebuilt.Installed(name, st.gen, st.tgt)
		}

		st := live.FusedStats()
		if st.Live != len(want) {
			t.Fatalf("trial %d: fused index has %d live slots, want %d", trial, st.Live, len(want))
		}
		if threshold == 1 && st.Tombstones != 0 {
			t.Fatalf("trial %d: threshold-1 index kept %d tombstones", trial, st.Tombstones)
		}

		src := fx.datasets[names[trial%len(names)]].Source
		a, err := live.MatchAny(context.Background(), src, Query{K: 2})
		if err != nil {
			t.Fatalf("trial %d live: %v", trial, err)
		}
		b, err := rebuilt.MatchAny(context.Background(), src, Query{K: 2})
		if err != nil {
			t.Fatalf("trial %d rebuilt: %v", trial, err)
		}
		aName, aEdges := winningEdges(t, a)
		bName, bEdges := winningEdges(t, b)
		if aName != bName || aEdges != bEdges {
			t.Fatalf("trial %d: churned fleet winner %s diverges from rebuilt %s", trial, aName, bName)
		}
		evidence := func(rep *Report) map[string]float64 {
			out := map[string]float64{}
			for _, cs := range rep.Retrieval {
				if !cs.Pruned && !cs.Unindexed {
					out[cs.Name] = cs.Evidence
				}
			}
			return out
		}
		ae, be := evidence(a), evidence(b)
		for name, ev := range ae {
			if bev, ok := be[name]; ok && bev != ev {
				t.Errorf("trial %d: %s evidence %v (churned) vs %v (rebuilt)", trial, name, ev, bev)
			}
		}
	}
}

// TestMatchAnyFusedMatchesExhaustiveAfterChurn seals the trace property
// end-to-end: after churn, the fused retrieval path and the exhaustive
// reference (matchEvery) agree on the winner and its edges.
func TestMatchAnyFusedMatchesExhaustiveAfterChurn(t *testing.T) {
	fx := sharedFleet(t)
	f := newTestFleet(t, 1)
	// Churn: evict half the fleet, reinstall two catalogs under new
	// generations (the PATCH swap shape), evict one more.
	for _, name := range []string{"aaron-2", "barrett-1", "ryan-2", "aaron-scaled"} {
		f.Removed(name)
	}
	f.Installed("aaron-2", 100, fx.targets["aaron-2"])
	f.Installed("ryan-1", 101, fx.targets["ryan-1"])
	f.Removed("barrett-2")

	src := fx.datasets["ryan-1"].Source
	fused, err := f.MatchAny(context.Background(), src, Query{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	fn, fe := winningEdges(t, fused)
	en, ee := winningEdges(t, matchEvery(t, f, src))
	if fn != en || fe != ee {
		t.Fatalf("after churn: fused winner %s, exhaustive %s", fn, en)
	}
	// The reinstall must surface the new generations in the report.
	gens := map[string]int{}
	for _, cs := range fused.Retrieval {
		gens[cs.Name] = cs.Generation
	}
	if gens["aaron-2"] != 100 || gens["ryan-1"] != 101 {
		t.Fatalf("retrieval generations not swapped: %+v", gens)
	}
}

// TestFusedStatsAccounting sanity-checks the exported counters: probes
// and bound skips move under retrieval traffic, and the structural
// numbers reflect the installed fleet.
func TestFusedStatsAccounting(t *testing.T) {
	f := newTestFleet(t, 1)
	st := f.FusedStats()
	if st.Slots != len(fleetSpecs) || st.Live != len(fleetSpecs) || st.Tombstones != 0 {
		t.Fatalf("fresh fleet fused stats: %+v", st)
	}
	if st.Grams == 0 || st.Runs == 0 || st.Bytes == 0 {
		t.Fatalf("fused index claims to be empty: %+v", st)
	}
	src := sharedFleet(t).datasets["aaron-1"].Source
	if _, err := f.MatchAny(context.Background(), src, Query{K: 1}); err != nil {
		t.Fatal(err)
	}
	after := f.FusedStats()
	if after.Probes <= st.Probes {
		t.Fatalf("retrieval did not count fused probes: %+v", after)
	}
	buf, err := json.Marshal(after)
	if err != nil {
		t.Fatalf("fused stats must serialize for the stats endpoint: %v", err)
	}
	if len(buf) == 0 {
		t.Fatal("empty fused stats JSON")
	}
}
