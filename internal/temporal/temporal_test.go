package temporal

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"adnet/internal/graph"
)

func edge(u, v graph.ID) graph.Edge { return graph.NewEdge(u, v) }

func TestApplyDistance2Rule(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(4)) // 0-1-2-3

	// 0 and 2 share neighbor 1: legal.
	stats, err := h.Apply([]graph.Edge{edge(0, 2)}, nil)
	if err != nil {
		t.Fatalf("legal activation rejected: %v", err)
	}
	if stats.Activated != 1 || !h.Active(0, 2) {
		t.Fatalf("edge {0,2} not activated: %+v", stats)
	}

	// 0 and 3 are now at distance 2 via 2: legal in the next round.
	if _, err := h.Apply([]graph.Edge{edge(0, 3)}, nil); err != nil {
		t.Fatalf("second-round activation rejected: %v", err)
	}
}

func TestApplyRejectsDistance3(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(4))
	_, err := h.Apply([]graph.Edge{edge(0, 3)}, nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("distance-3 activation accepted, err=%v", err)
	}
	if v.Round != 1 || v.Op != "activate" {
		t.Fatalf("violation fields wrong: %+v", v)
	}
}

func TestApplyRejectsSelfLoop(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(3))
	if _, err := h.Apply([]graph.Edge{edge(1, 1)}, nil); err == nil {
		t.Fatalf("self-loop accepted")
	}
}

func TestApplyNoOps(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(3))
	// Activating an active (original) edge is a no-op, not an error.
	stats, err := h.Apply([]graph.Edge{edge(0, 1)}, nil)
	if err != nil || stats.Activated != 0 {
		t.Fatalf("activation of active edge should be a silent no-op: %v %+v", err, stats)
	}
	// Deactivating an inactive edge is a no-op.
	stats, err = h.Apply(nil, []graph.Edge{edge(0, 2)})
	if err != nil || stats.Deactivated != 0 {
		t.Fatalf("deactivation of inactive edge should be a no-op: %v %+v", err, stats)
	}
	if got := h.Metrics().TotalActivations; got != 0 {
		t.Fatalf("no-ops counted as activations: %d", got)
	}
}

func TestApplyDuplicateIntentsCoalesce(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(3))
	// Both endpoints request the same activation: one edge results.
	stats, err := h.Apply([]graph.Edge{edge(0, 2), edge(2, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Activated != 1 {
		t.Fatalf("duplicate activation counted twice: %+v", stats)
	}
	if h.Metrics().TotalActivations != 1 {
		t.Fatalf("total activations = %d, want 1", h.Metrics().TotalActivations)
	}
}

func TestApplyConflictingIntentsCancel(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(3))
	// Simultaneous activate+deactivate of the same (inactive) edge: the
	// endpoints disagree, so nothing happens to the edge.
	stats, err := h.Apply([]graph.Edge{edge(0, 2)}, []graph.Edge{edge(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Activated != 0 || stats.Deactivated != 0 || h.Active(0, 2) {
		t.Fatalf("conflicting intents should cancel: %+v active=%v", stats, h.Active(0, 2))
	}
}

func TestDeactivation(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(3))
	if _, err := h.Apply([]graph.Edge{edge(0, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	stats, err := h.Apply(nil, []graph.Edge{edge(0, 2)})
	if err != nil || stats.Deactivated != 1 {
		t.Fatalf("deactivation failed: %v %+v", err, stats)
	}
	if h.Active(0, 2) {
		t.Fatalf("edge still active")
	}
	m := h.Metrics()
	if m.TotalActivations != 1 || m.TotalDeactivations != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.FinalActivatedAlive != 0 {
		t.Fatalf("activated-alive should be back to 0: %+v", m)
	}
}

func TestMetricsAccounting(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(5)) // 0-1-2-3-4
	// Round 1: two chords.
	if _, err := h.Apply([]graph.Edge{edge(0, 2), edge(2, 4)}, nil); err != nil {
		t.Fatal(err)
	}
	// Round 2: one more chord via {0,2},{2,4}; drop {0,2}.
	if _, err := h.Apply([]graph.Edge{edge(0, 4)}, []graph.Edge{edge(0, 2)}); err != nil {
		t.Fatal(err)
	}
	m := h.Metrics()
	if m.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", m.Rounds)
	}
	if m.TotalActivations != 3 {
		t.Errorf("total activations = %d, want 3", m.TotalActivations)
	}
	if m.MaxActivatedEdges != 2 {
		t.Errorf("max activated edges = %d, want 2", m.MaxActivatedEdges)
	}
	// Node 2 held chords {0,2} and {2,4} simultaneously after round 1.
	if m.MaxActivatedDegree != 2 {
		t.Errorf("max activated degree = %d, want 2", m.MaxActivatedDegree)
	}
	if m.FinalActivatedAlive != 2 { // {2,4} and {0,4}
		t.Errorf("final activated alive = %d, want 2", m.FinalActivatedAlive)
	}
}

func TestOriginalEdgesExcludedFromActivatedMeasures(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Ring(4))
	// Deactivate an original edge, then re-activate it next round
	// (0 and 1 share neighbor? after removing {0,1}: 0-3-2-1, common
	// neighbor of 0 and 1 is none at distance... 0's neighbors {3},
	// 1's neighbors {2}; so re-activate via two rounds).
	if _, err := h.Apply(nil, []graph.Edge{edge(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Apply([]graph.Edge{edge(0, 2)}, nil); err != nil { // via 3
		t.Fatal(err)
	}
	if _, err := h.Apply([]graph.Edge{edge(0, 1)}, nil); err != nil { // via 2
		t.Fatal(err)
	}
	m := h.Metrics()
	// Re-activation of an original edge counts toward total activations
	// but never toward the activated-subgraph measures.
	if m.TotalActivations != 2 {
		t.Errorf("total activations = %d, want 2", m.TotalActivations)
	}
	if m.MaxActivatedEdges != 1 { // only {0,2}
		t.Errorf("max activated edges = %d, want 1", m.MaxActivatedEdges)
	}
	act := h.ActivatedSubgraph()
	if act.NumEdges() != 1 || !act.HasEdge(0, 2) {
		t.Errorf("activated subgraph wrong: %v", act.Edges())
	}
}

func TestPotentialNeighbors(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(5))
	got := h.PotentialNeighbors(2)
	want := []graph.ID{0, 4}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("N2(2) = %v, want %v", got, want)
	}
	if n2 := h.PotentialNeighbors(0); len(n2) != 1 || n2[0] != 2 {
		t.Fatalf("N2(0) = %v, want [2]", n2)
	}
}

// TestPerRoundStats: a round's statistics travel in its RoundDelta,
// equal to what Apply returned.
func TestPerRoundStats(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(4))
	var pr []RoundStats
	for _, acts := range [][]graph.Edge{{edge(0, 2)}, nil} {
		st, err := h.Apply(acts, nil)
		if err != nil {
			t.Fatal(err)
		}
		var d RoundDelta
		if h.AppendLastDelta(&d); d.Stats != st {
			t.Fatalf("delta stats %+v, Apply returned %+v", d.Stats, st)
		}
		pr = append(pr, d.Stats)
	}
	if pr[0].Round != 1 || pr[1].Round != 2 || pr[0].Activated != 1 || pr[1].Activated != 0 {
		t.Fatalf("per-round stats wrong: %+v", pr)
	}
	if pr[1].ActiveEdges != 4 { // 3 original + 1 chord
		t.Fatalf("active edges = %d, want 4", pr[1].ActiveEdges)
	}
}

func TestHistoryDoesNotAliasInput(t *testing.T) {
	t.Parallel()
	gs := graph.Line(3)
	h := NewHistory(gs)
	gs.RemoveEdge(0, 1)
	if !h.Active(0, 1) {
		t.Fatalf("History aliases the caller's graph")
	}
	c := h.CurrentClone()
	c.RemoveEdge(1, 2)
	if !h.Active(1, 2) {
		t.Fatalf("CurrentClone aliases internal state")
	}
}

// Property: the clique-formation process (activate all of N2 every
// round) maintains the invariant that every activation is legal, ends
// at the complete graph in ⌈log2(n-1)⌉ rounds on a line, and the metric
// ledger matches a recomputation from scratch.
func TestCliquePropertyOnLines(t *testing.T) {
	t.Parallel()
	f := func(rawN uint8) bool {
		n := int(rawN)%40 + 2
		h := NewHistory(graph.Line(n))
		recount := 0
		for r := 0; r < 5*n; r++ {
			var acts []graph.Edge
			for _, u := range h.CurrentClone().Nodes() {
				for _, w := range h.PotentialNeighbors(u) {
					acts = append(acts, graph.NewEdge(u, w))
				}
			}
			if len(acts) == 0 {
				break
			}
			stats, err := h.Apply(acts, nil)
			if err != nil {
				return false
			}
			recount += stats.Activated
		}
		m := h.Metrics()
		wantEdges := n * (n - 1) / 2
		return m.FinalActiveEdges == wantEdges &&
			m.TotalActivations == recount &&
			m.TotalActivations == wantEdges-(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: random legal mutation sequences keep the ledger's
// activated-alive set equal to E(i) \ E(1) recomputed from scratch.
func TestLedgerMatchesRecomputation(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gs := graph.RandomConnected(20, 10, rng)
		h := NewHistory(gs)
		for r := 0; r < 30; r++ {
			var acts, deacts []graph.Edge
			cur := h.CurrentClone()
			for _, u := range cur.Nodes() {
				if n2 := h.PotentialNeighbors(u); len(n2) > 0 && rng.Intn(3) == 0 {
					acts = append(acts, graph.NewEdge(u, n2[rng.Intn(len(n2))]))
				}
			}
			for _, e := range cur.Edges() {
				if !h.IsOriginal(e.A, e.B) && rng.Intn(4) == 0 {
					deacts = append(deacts, e)
				}
			}
			if _, err := h.Apply(acts, deacts); err != nil {
				return false
			}
		}
		// Recompute E(i) \ E(1) from snapshots.
		cur, init := h.CurrentClone(), h.InitialClone()
		alive := 0
		maxDeg := 0
		degs := map[graph.ID]int{}
		for _, e := range cur.Edges() {
			if !init.HasEdge(e.A, e.B) {
				alive++
				degs[e.A]++
				degs[e.B]++
			}
		}
		for _, d := range degs {
			if d > maxDeg {
				maxDeg = d
			}
		}
		m := h.Metrics()
		act := h.ActivatedSubgraph()
		return m.FinalActivatedAlive == alive &&
			act.NumEdges() == alive &&
			act.MaxDegree() == maxDeg &&
			m.MaxActivatedDegree >= maxDeg &&
			m.MaxActivatedEdges >= alive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func pairsEqual(got []int32, want ...int32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestDeltaExport(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(4)) // 0-1-2-3; slots equal IDs

	var d RoundDelta
	h.AppendLastDelta(&d)
	if d.Round != 0 || len(d.Activate) != 0 || len(d.Deactivate) != 0 {
		t.Fatalf("pre-round delta = %+v, want empty round 0", d)
	}
	if init := h.AppendInitialEdges(nil); !pairsEqual(init, 0, 1, 1, 2, 2, 3) {
		t.Fatalf("initial edges = %v", init)
	}

	if _, err := h.Apply([]graph.Edge{edge(0, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	h.AppendLastDelta(&d)
	if d.Round != 1 || !pairsEqual(d.Activate, 0, 2) || len(d.Deactivate) != 0 {
		t.Fatalf("round-1 delta = %+v", d)
	}

	// A mixed round: activate {1,3}, deactivate the activated {0,2}.
	if _, err := h.Apply([]graph.Edge{edge(1, 3)}, []graph.Edge{edge(0, 2)}); err != nil {
		t.Fatal(err)
	}
	h.AppendLastDelta(&d)
	if d.Round != 2 || !pairsEqual(d.Activate, 1, 3) || !pairsEqual(d.Deactivate, 0, 2) {
		t.Fatalf("round-2 delta = %+v", d)
	}

	// No-op intents commit nothing and must export an empty delta.
	if _, err := h.Apply([]graph.Edge{edge(0, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	h.AppendLastDelta(&d)
	if d.Round != 3 || len(d.Activate) != 0 || len(d.Deactivate) != 0 {
		t.Fatalf("no-op round delta = %+v", d)
	}

	// Reset clears the last-round scratch.
	h.Reset(graph.Line(3))
	h.AppendLastDelta(&d)
	if d.Round != 0 || len(d.Activate) != 0 || len(d.Deactivate) != 0 {
		t.Fatalf("post-reset delta = %+v", d)
	}
}
