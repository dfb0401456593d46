package temporal

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"adnet/internal/graph"
)

// goroutinePar runs fn(0) … fn(n-1) on real goroutines, the way the
// engine's worker pool drives ApplyBatches.
func goroutinePar(n int, fn func(k int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k)
		}(i)
	}
	wg.Wait()
}

// splitIntents cuts a global intent list into k batches at random
// boundaries, preserving order (batch concatenation == caller order).
func splitIntents(rng *rand.Rand, act, deact []graph.Edge, k int) []IntentBatch {
	batches := make([]IntentBatch, k)
	cutsA := randomCuts(rng, len(act), k)
	cutsD := randomCuts(rng, len(deact), k)
	for i := 0; i < k; i++ {
		batches[i].Activate = act[cutsA[i]:cutsA[i+1]]
		batches[i].Deactivate = deact[cutsD[i]:cutsD[i+1]]
	}
	return batches
}

func randomCuts(rng *rand.Rand, n, k int) []int {
	cuts := make([]int, k+1)
	for i := 1; i < k; i++ {
		cuts[i] = rng.Intn(n + 1)
	}
	cuts[k] = n
	inner := cuts[1:k]
	for i := range inner {
		for j := i; j > 0 && inner[j] < inner[j-1]; j-- {
			inner[j], inner[j-1] = inner[j-1], inner[j]
		}
	}
	return cuts
}

// TestApplyBatchesMatchesSequential drives a sequential Apply history
// and two ApplyBatches histories (k batches validated on real
// goroutines, and the k=1 fast path) through identical randomized
// rounds — including rounds with duplicate intents, disagreements and
// model violations — asserting identical stats, errors, metrics and,
// round by round, byte-identical deltas (all four lists).
func TestApplyBatchesMatchesSequential(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		n := rng.Intn(24) + 8
		gs := graph.Line(n)
		seq := NewHistory(gs)
		par := NewHistory(gs)
		one := NewHistory(gs)
		k := rng.Intn(6) + 2
		for round := 0; round < 40; round++ {
			act, deact := randomRoundIntents(rng, seq)
			batches := splitIntents(rng, act, deact, k)
			wantStats, wantErr := seq.Apply(act, deact)
			gotStats, gotErr := par.ApplyBatches(batches, goroutinePar)
			oneStats, oneErr := one.ApplyBatches([]IntentBatch{{Activate: act, Deactivate: deact}}, nil)
			if (wantErr == nil) != (gotErr == nil) || (wantErr == nil) != (oneErr == nil) {
				t.Fatalf("seed %d round %d: err mismatch: seq=%v par=%v one=%v", seed, round, wantErr, gotErr, oneErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() || wantErr.Error() != oneErr.Error() {
					t.Fatalf("seed %d round %d: violation mismatch:\nseq: %v\npar: %v\none: %v",
						seed, round, wantErr, gotErr, oneErr)
				}
				continue
			}
			if wantStats != gotStats || wantStats != oneStats {
				t.Fatalf("seed %d round %d: stats mismatch: seq=%+v par=%+v one=%+v",
					seed, round, wantStats, gotStats, oneStats)
			}
			sd, pd, od := lastDelta(seq), lastDelta(par), lastDelta(one)
			if len(sd.Activate) != 2*wantStats.Activated || len(sd.Deactivate) != 2*wantStats.Deactivated {
				t.Fatalf("seed %d round %d: delta %+v does not match stats %+v", seed, round, sd, wantStats)
			}
			if !reflect.DeepEqual(sd, pd) {
				t.Fatalf("seed %d round %d: delta diverges (parallel): %+v vs %+v", seed, round, sd, pd)
			}
			if !reflect.DeepEqual(sd, od) {
				t.Fatalf("seed %d round %d: delta diverges (k=1): %+v vs %+v", seed, round, sd, od)
			}
		}
		if sm, pm, om := seq.Metrics(), par.Metrics(), one.Metrics(); sm != pm || sm != om {
			t.Fatalf("seed %d: metrics diverge: seq=%+v par=%+v one=%+v", seed, sm, pm, om)
		}
	}
}

// randomRoundIntents builds one round of intents from h's snapshot:
// mostly legal distance-2 activations and active-edge deactivations,
// with duplicates and occasional disagreements, plus (in ~1/8 of
// rounds) a deliberate violation to exercise error parity.
func randomRoundIntents(rng *rand.Rand, h *History) (act, deact []graph.Edge) {
	ids := h.CurrentView().Nodes()
	for i, tries := 0, rng.Intn(8); i < tries; i++ {
		u := ids[rng.Intn(len(ids))]
		cands := h.PotentialNeighbors(u)
		if len(cands) == 0 {
			continue
		}
		w := cands[rng.Intn(len(cands))]
		act = append(act, graph.NewEdge(u, w))
		if rng.Intn(4) == 0 {
			act = append(act, graph.NewEdge(w, u)) // duplicate from the other endpoint
		}
		if rng.Intn(5) == 0 {
			deact = append(deact, graph.NewEdge(u, w)) // disagreement
		}
	}
	edges := h.CurrentClone().Edges()
	for i, tries := 0, rng.Intn(4); i < tries && len(edges) > 0; i++ {
		deact = append(deact, edges[rng.Intn(len(edges))])
	}
	if rng.Intn(8) == 0 {
		// A violation: self-loop or a distant pair.
		u := ids[rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			act = append(act, graph.Edge{A: u, B: u})
		} else {
			// The line's endpoints are at distance n-1 > 2 for n >= 8
			// unless earlier rounds shortened it; only inject when
			// it is actually illegal right now.
			a, b := ids[0], ids[len(ids)-1]
			if !h.Active(a, b) && !h.CurrentClone().HaveCommonNeighbor(a, b) {
				act = append(act, graph.NewEdge(a, b))
			}
		}
	}
	return act, deact
}
