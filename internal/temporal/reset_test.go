package temporal

import (
	"math/rand"
	"reflect"
	"testing"

	"adnet/internal/graph"
)

// churn applies r rounds of randomized legal activate/deactivate
// intents and returns the final Metrics.
func churn(t *testing.T, h *History, rng *rand.Rand, rounds int) Metrics {
	t.Helper()
	for i := 0; i < rounds; i++ {
		var acts, deacts []graph.Edge
		for _, u := range h.CurrentClone().Nodes() {
			for _, w := range h.PotentialNeighbors(u) {
				if rng.Intn(4) == 0 {
					acts = append(acts, graph.NewEdge(u, w))
				}
			}
			for _, v := range h.NeighborsOf(u) {
				if !h.IsOriginal(u, v) && rng.Intn(3) == 0 {
					deacts = append(deacts, graph.NewEdge(u, v))
				}
			}
		}
		if _, err := h.Apply(acts, deacts); err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
	}
	return h.Metrics()
}

func TestHistoryResetMatchesFresh(t *testing.T) {
	t.Parallel()
	g1 := graph.Ring(16)
	g2 := graph.Line(9)

	// One History reused across three executions...
	reused := NewHistory(g1)
	churn(t, reused, rand.New(rand.NewSource(1)), 6)
	reused.Reset(g2)
	mB := churn(t, reused, rand.New(rand.NewSource(2)), 5)
	reused.Reset(g1)
	mC := churn(t, reused, rand.New(rand.NewSource(3)), 6)

	// ...must match fresh Histories run with the same intents.
	wantB := churn(t, NewHistory(g2), rand.New(rand.NewSource(2)), 5)
	wantC := churn(t, NewHistory(g1), rand.New(rand.NewSource(3)), 6)
	if mB != wantB {
		t.Errorf("after reset: %+v, fresh: %+v", mB, wantB)
	}
	if mC != wantC {
		t.Errorf("after second reset: %+v, fresh: %+v", mC, wantC)
	}
}

func TestResetClearsTraceAndPerRound(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Ring(5))
	if _, err := h.Apply([]graph.Edge{graph.NewEdge(0, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	h.Reset(graph.Ring(5))
	if d := lastDelta(h); !reflect.DeepEqual(d, RoundDelta{}) {
		t.Fatalf("last delta survived Reset: %+v", d)
	}
	if len(h.PerRound()) != 0 {
		t.Fatal("per-round log survived Reset")
	}
	if h.Round() != 1 {
		t.Fatalf("Round() = %d after Reset", h.Round())
	}
	if m := h.Metrics(); m.TotalActivations != 0 || m.MaxActivatedDegree != 0 {
		t.Fatalf("metrics survived Reset: %+v", m)
	}
}

func TestSlotQueries(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	gs := graph.PermuteIDs(graph.RandomConnected(30, 20, rng), rng)
	h := NewHistory(gs)
	ids := gs.Nodes()
	for i, u := range ids {
		s, ok := h.SlotOf(u)
		if !ok || s != i {
			t.Fatalf("SlotOf(%d) = %d,%v; want %d", u, s, ok, i)
		}
		if h.IDAtSlot(i) != u {
			t.Fatalf("IDAtSlot(%d) = %d, want %d", i, h.IDAtSlot(i), u)
		}
	}
	// ActiveSlots agrees with Active for every pair.
	for i, u := range ids {
		for j, v := range ids {
			if i == j {
				continue
			}
			if h.ActiveSlots(i, j) != h.Active(u, v) {
				t.Fatalf("ActiveSlots(%d,%d) disagrees with Active(%d,%d)", i, j, u, v)
			}
		}
	}
	// InitialNeighborsView matches InitialNeighborsOf.
	for _, u := range ids {
		if !reflect.DeepEqual(append([]graph.ID{}, h.InitialNeighborsView(u)...), h.InitialNeighborsOf(u)) {
			t.Fatalf("InitialNeighborsView(%d) = %v", u, h.InitialNeighborsView(u))
		}
	}
}

// TestActivatedDegreeDenseMatchesMap replays randomized churn and
// cross-checks the dense slot-indexed activated-degree accounting
// against an independent map model.
func TestActivatedDegreeDenseMatchesMap(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	h := NewHistory(graph.Ring(24))
	model := map[graph.ID]int{}
	maxDeg := 0
	for round := 0; round < 12; round++ {
		var acts, deacts []graph.Edge
		for _, u := range h.CurrentClone().Nodes() {
			for _, w := range h.PotentialNeighbors(u) {
				if rng.Intn(3) == 0 {
					acts = append(acts, graph.NewEdge(u, w))
				}
			}
			for _, v := range h.NeighborsOf(u) {
				if !h.IsOriginal(u, v) && rng.Intn(3) == 0 {
					deacts = append(deacts, graph.NewEdge(u, v))
				}
			}
		}
		before := h.CurrentClone()
		if _, err := h.Apply(acts, deacts); err != nil {
			t.Fatal(err)
		}
		after := h.CurrentClone()
		// Update the model from the snapshot delta. Activations apply
		// before deactivations within a round, so the degree peak is
		// sampled between the two phases — same as the ledger.
		for _, e := range after.Edges() {
			if !before.HasEdge(e.A, e.B) && !h.IsOriginal(e.A, e.B) {
				model[e.A]++
				model[e.B]++
			}
		}
		for _, d := range model {
			if d > maxDeg {
				maxDeg = d
			}
		}
		for _, e := range before.Edges() {
			if !after.HasEdge(e.A, e.B) && !h.IsOriginal(e.A, e.B) {
				model[e.A]--
				model[e.B]--
			}
		}
	}
	if got := h.Metrics().MaxActivatedDegree; got != maxDeg {
		t.Fatalf("MaxActivatedDegree = %d, model says %d", got, maxDeg)
	}
}
