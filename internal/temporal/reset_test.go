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
	var d RoundDelta
	if h.AppendLastDelta(&d); !reflect.DeepEqual(d, RoundDelta{}) {
		t.Fatalf("last delta or its stats survived Reset: %+v", d)
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

// TestHistoryNodeTable pins the one ID <-> slot table of a run: slots
// are the ranks of the node IDs in ascending order whatever the IDs
// are, the wire renderings (initial edges, round deltas) are in ranks,
// anything that is not a node has no slot, and a Reset onto a smaller
// or different node set leaves no rank behind.
func TestHistoryNodeTable(t *testing.T) {
	t.Parallel()
	gs := graph.New()
	gs.MustAddEdge(5, 2)
	gs.MustAddEdge(2, 9)
	gs.MustAddEdge(9, 99)
	h := NewHistory(gs)
	for slot, u := range []graph.ID{2, 5, 9, 99} {
		if s, ok := h.SlotOf(u); !ok || s != slot || h.IDAtSlot(slot) != u {
			t.Fatalf("SlotOf(%d) = %d,%v and IDAtSlot(%d) = %d; want rank %d", u, s, ok, slot, h.IDAtSlot(slot), slot)
		}
	}
	for _, u := range []graph.ID{77, -1, 0, 100, 1000} {
		if s, ok := h.SlotOf(u); ok {
			t.Fatalf("SlotOf(%d) = %d, true for a non-node", u, s)
		}
	}
	if got, want := h.AppendInitialEdges(nil), []int32{0, 1, 0, 2, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendInitialEdges = %v, want %v", got, want)
	}
	// {5,9} has the common neighbor 2; cutting {9,99} is legal too.
	if _, err := h.Apply([]graph.Edge{{A: 9, B: 5}}, []graph.Edge{{A: 99, B: 9}}); err != nil {
		t.Fatal(err)
	}
	var d RoundDelta
	h.AppendLastDelta(&d)
	if d.Round != 1 || !reflect.DeepEqual(d.Activate, []int32{1, 2}) || !reflect.DeepEqual(d.Deactivate, []int32{2, 3}) {
		t.Fatalf("round delta = %+v, want activate [1 2], deactivate [2 3]", d)
	}
	if got := []int{h.ActivatedDegreeAtSlot(0), h.ActivatedDegreeAtSlot(1), h.ActivatedDegreeAtSlot(2), h.ActivatedDegreeAtSlot(3)}; !reflect.DeepEqual(got, []int{0, 1, 1, 0}) {
		t.Fatalf("activated degrees by slot = %v", got)
	}

	// Shrink: Line(3) reuses the table; 5, 9 and 99 are gone, 2 moved.
	h.Reset(graph.Line(3))
	if s, ok := h.SlotOf(2); !ok || s != 2 || h.NumNodes() != 3 {
		t.Fatalf("after shrinking Reset: SlotOf(2) = %d,%v, n = %d", s, ok, h.NumNodes())
	}
	for _, u := range []graph.ID{5, 9, 99} {
		if s, ok := h.SlotOf(u); ok {
			t.Fatalf("stale rank after shrinking Reset: SlotOf(%d) = %d", u, s)
		}
	}
	// A different node set inside the old range: 0, 1, 2 are gone.
	gs.Reset()
	gs.MustAddEdge(7, 9)
	h.Reset(gs)
	if s, ok := h.SlotOf(2); ok {
		t.Fatalf("stale rank: SlotOf(2) = %d after Reset onto {7, 9}", s)
	}
	if s, ok := h.SlotOf(9); !ok || s != 1 || h.IDAtSlot(0) != 7 {
		t.Fatalf("after Reset onto {7, 9}: SlotOf(9) = %d,%v, IDAtSlot(0) = %d", s, ok, h.IDAtSlot(0))
	}
	if got, want := h.AppendInitialEdges(nil), []int32{0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendInitialEdges = %v, want %v", got, want)
	}
}
