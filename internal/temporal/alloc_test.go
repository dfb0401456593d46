//go:build !race

package temporal

import (
	"testing"

	"adnet/internal/graph"
)

// TestAppendActivatedAliveZeroAllocs pins the walk behind the
// targeted-cut schedule, which calls AppendActivatedAlive every round:
// into a warm dst it allocates nothing, also when the walk crosses a
// bitset-backed node and merges past environment-activated edges.
func TestAppendActivatedAliveZeroAllocs(t *testing.T) {
	// A star centred at 1 over 0..n-1. Activating {0,v} for every other
	// leaf v (common neighbour 1) makes 0 the centre of an activated
	// star, far past the degree at which graph promotes a node to a
	// bitset.
	const n = 200
	g := graph.New()
	for v := graph.ID(0); v < n; v++ {
		if v != 1 {
			g.MustAddEdge(1, v)
		}
	}
	h := NewHistory(g)
	var acts []graph.Edge
	for v := graph.ID(2); v < n; v++ {
		acts = append(acts, edge(0, v))
	}
	if _, err := h.Apply(acts, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ApplyEnvironment([]graph.Edge{edge(2, 3), edge(5, 9)}, nil); err != nil {
		t.Fatal(err)
	}
	if testing.AllocsPerRun(1, func() { h.CurrentView().NeighborsView(0) }) == 0 {
		t.Fatal("node 0 is not bitset-backed: NeighborsView did not materialize its neighbors")
	}
	dst := h.AppendActivatedAlive(nil)
	if len(dst) != n-2 {
		t.Fatalf("AppendActivatedAlive returned %d edges, want %d", len(dst), n-2)
	}
	if allocs := testing.AllocsPerRun(100, func() { dst = h.AppendActivatedAlive(dst) }); allocs != 0 {
		t.Fatalf("AppendActivatedAlive into a warm dst: %v allocs/op, want 0", allocs)
	}
}

// TestApplyFirstRoundZeroAllocs pins that Apply commits in its
// arguments: a fresh History's first round of deactivations and no-op
// activations, given in both orientations, allocates nothing, where a
// History-owned copy of the requests would grow on first use.
func TestApplyFirstRoundZeroAllocs(t *testing.T) {
	const runs = 10
	g := graph.Line(64)
	hs := make([]*History, runs+1) // AllocsPerRun adds one warm-up call
	acts := make([][]graph.Edge, runs+1)
	deacts := make([][]graph.Edge, runs+1)
	for i := range hs {
		hs[i] = NewHistory(g)
		for v := graph.ID(1); v < 64; v += 2 {
			acts[i] = append(acts[i], graph.Edge{A: v, B: v - 1})
			deacts[i] = append(deacts[i], graph.Edge{A: v + 1, B: v})
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		st, err := hs[i].Apply(acts[i], deacts[i])
		if err != nil || st.Activated != 0 || st.Deactivated != 31 {
			t.Fatalf("first Apply: stats %+v, err %v; want 31 deactivations", st, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a fresh History's first Apply: %v allocs/op, want 0", allocs)
	}
}
