package temporal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"adnet/internal/graph"
)

// TestApplyRandomRoundsDigest pins Apply's outcome over randomized
// rounds — duplicate intents, disagreements, self-loops and distance-2
// violations included — as one digest of every round's error or stats
// and delta, and every seed's final metrics. A change to validation,
// no-op filtering, disagreement handling or commit order moves it.
func TestApplyRandomRoundsDigest(t *testing.T) {
	t.Parallel()
	const want = "4001ef744fe0f55e"
	hsh := fnv.New64a()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		n := rng.Intn(24) + 8
		h := NewHistory(graph.Line(n))
		for round := 0; round < 40; round++ {
			act, deact := randomRoundIntents(rng, h)
			stats, err := h.Apply(act, deact)
			if err != nil {
				fmt.Fprintf(hsh, "e%v|", err)
				continue
			}
			fmt.Fprintf(hsh, "%+v %+v|", stats, lastDelta(h))
		}
		fmt.Fprintf(hsh, "m%+v|", h.Metrics())
	}
	if got := fmt.Sprintf("%016x", hsh.Sum64()); got != want {
		t.Fatalf("Apply digest = %s, want %s", got, want)
	}
}

// randomRoundIntents builds one round of intents from h's snapshot:
// mostly legal distance-2 activations and active-edge deactivations,
// with duplicates and occasional disagreements, plus (in ~1/8 of
// rounds) a deliberate violation to exercise the error path.
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
