package baseline

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
)

func TestCliqueFormsCompleteGraph(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 5, 17, 40} {
		res, err := sim.Run(graph.Line(n), NewCliqueFactory())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Metrics.FinalActiveEdges != n*(n-1)/2 {
			t.Fatalf("n=%d: %d edges, want K_n", n, res.Metrics.FinalActiveEdges)
		}
		if err := tasks.VerifyLeaderElection(res, graph.ID(n-1)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// O(log n) rounds, Θ(n²) activations: the paper's impractical
		// corner of the tradeoff.
		if res.Rounds > bits.Len(uint(n))+3 {
			t.Fatalf("n=%d: %d rounds", n, res.Rounds)
		}
		if res.Metrics.TotalActivations != n*(n-1)/2-(n-1) {
			t.Fatalf("n=%d: activations %d", n, res.Metrics.TotalActivations)
		}
	}
}

func TestFloodLinearTimeZeroActivations(t *testing.T) {
	t.Parallel()
	n := 50
	res, err := sim.Run(graph.Line(n), NewFloodFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalActivations != 0 {
		t.Fatalf("flooding activated %d edges", res.Metrics.TotalActivations)
	}
	// Θ(diameter) rounds: the node at the far end needs n-1 rounds.
	if res.Rounds < n-1 {
		t.Fatalf("flooding finished in %d rounds, want >= %d", res.Rounds, n-1)
	}
	if err := tasks.VerifyLeaderElection(res, graph.ID(n-1)); err != nil {
		t.Fatal(err)
	}
	// Token dissemination completed at every node.
	all := graph.Line(n).Nodes()
	per := make(map[graph.ID]map[graph.ID]bool, n)
	for nd := range res.Nodes {
		id, m := nd.ID, nd.Machine
		per[id] = m.(*FloodMachine).Known()
	}
	if err := tasks.VerifyTokenDissemination(all, per); err != nil {
		t.Fatal(err)
	}
}

func TestCutInHalfLine(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 3, 8, 33, 256, 1000} {
		res, err := CutInHalfLine(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		met := res.Metrics
		// Θ(n) total activations (Lemma D.3 optimum: ≈ n).
		if met.TotalActivations > 2*n {
			t.Fatalf("n=%d: %d activations > 2n", n, met.TotalActivations)
		}
		// ⌈log n⌉ + 1 rounds.
		if met.Rounds > bits.Len(uint(n))+2 {
			t.Fatalf("n=%d: %d rounds", n, met.Rounds)
		}
		if res.Depth > bits.Len(uint(n))+1 {
			t.Fatalf("n=%d: depth %d", n, res.Depth)
		}
		final := res.History.CurrentClone()
		if err := tasks.VerifyDepthTree(final, res.Root, bits.Len(uint(n))+1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestEulerTourStrategyOnTrees(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		n := 5 + rng.Intn(200)
		g := graph.RandomTree(n, rng)
		res, err := EulerTourStrategy(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Theorem 6.3: Θ(n) activations (tour length ≤ 2n-1), O(log n)
		// rounds, Depth-log n tree.
		if res.Metrics.TotalActivations > 4*n {
			t.Fatalf("n=%d: %d activations", n, res.Metrics.TotalActivations)
		}
		if res.Metrics.Rounds > bits.Len(uint(2*n))+2 {
			t.Fatalf("n=%d: %d rounds", n, res.Metrics.Rounds)
		}
		if err := tasks.VerifyDepthTree(res.History.CurrentClone(), res.Root,
			bits.Len(uint(2*n))+2); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestEulerTourStrategyOnGeneralGraphs(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(120, 100, rng)
	res, err := EulerTourStrategy(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tasks.VerifyDepthTree(res.History.CurrentClone(), g.MaxID(), 10); err != nil {
		t.Fatal(err)
	}
	res2, err := EulerTourStrategy(graph.Grid(8, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.TotalActivations > 4*72 {
		t.Fatalf("grid activations %d", res2.Metrics.TotalActivations)
	}
}

// Property: the Euler strategy always yields a depth-O(log n) tree
// rooted at u_max with Θ(n) activations, on arbitrary connected graphs.
func TestEulerStrategyProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, rawN uint8, extra uint8) bool {
		n := int(rawN)%150 + 2
		rng := rand.New(rand.NewSource(seed))
		g := graph.PermuteIDs(graph.RandomConnected(n, int(extra)%n, rng), rng)
		res, err := EulerTourStrategy(g)
		if err != nil {
			return false
		}
		if res.Metrics.TotalActivations > 4*n {
			return false
		}
		return tasks.VerifyDepthTree(res.History.CurrentClone(), g.MaxID(),
			bits.Len(uint(2*n))+2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCutInHalfRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := CutInHalfLine(0); err == nil {
		t.Error("n=0 accepted")
	}
	bad := graph.New()
	bad.AddNode(1)
	bad.AddNode(2)
	if _, err := EulerTourStrategy(bad); err == nil {
		t.Error("disconnected graph accepted")
	}
}
