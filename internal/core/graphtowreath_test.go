package core

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
)

// runWreath executes GraphToWreath (or the thin variant) on g with the
// connectivity invariant enforced and checks the Depth-log n Tree
// post-conditions.
func runWreath(t *testing.T, g *graph.Graph, thin bool, extra ...sim.Option) *sim.Result {
	t.Helper()
	n := g.NumNodes()
	factory := NewGraphToWreathFactory()
	if thin {
		factory = NewGraphToThinWreathFactory()
	}
	res, err := sim.Run(g, factory, append([]sim.Option{
		sim.WithConnectivityCheck(),
		sim.WithMaxRounds(WreathMaxRounds(n, WreathBranching(n, thin)))}, extra...)...)
	if err != nil {
		t.Fatalf("wreath(thin=%v) on n=%d: %v", thin, n, err)
	}
	umax := g.MaxID()
	final := res.History.CurrentClone()
	if err := tasks.VerifyLeaderElection(res, umax); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	// Depth-log n Tree: spanning tree rooted at u_max of logarithmic
	// depth. The binary gadget gives ⌈log2 n⌉+1; the thin gadget only
	// less.
	maxDepth := bits.Len(uint(n)) + 1
	if err := tasks.VerifyDepthTree(final, umax, maxDepth); err != nil {
		t.Fatalf("n=%d: %v (m=%d)", n, err, final.NumEdges())
	}
	return res
}

func TestWreathSingleton(t *testing.T) {
	t.Parallel()
	g := graph.New()
	g.AddNode(3)
	runWreath(t, g, false)
}

func TestWreathPair(t *testing.T) {
	t.Parallel()
	runWreath(t, graph.Line(2), false)
}

func TestWreathTriangle(t *testing.T) {
	t.Parallel()
	runWreath(t, graph.Ring(3), false)
}

func TestWreathSmallLines(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 4, 5, 6, 7, 8} {
		runWreath(t, graph.Line(n), false)
	}
}

func TestWreathLines(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 33, 64, 100} {
		runWreath(t, graph.Line(n), false)
	}
}

func TestWreathRings(t *testing.T) {
	t.Parallel()
	for _, n := range []int{4, 8, 17, 64} {
		runWreath(t, graph.Ring(n), false)
	}
}

func TestWreathBoundedDegreeGraphs(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5; i++ {
		n := 16 + rng.Intn(100)
		g, err := graph.RandomBoundedDegree(n, 4, n/2, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runWreath(t, g, false)
		// Theorem 4.2: O(1) maximum activated degree. Ring(2) +
		// tree(3) + climb(2) + splice bridges(2) + slack.
		if res.Metrics.MaxActivatedDegree > 12 {
			t.Errorf("n=%d: max activated degree %d > 12", n, res.Metrics.MaxActivatedDegree)
		}
	}
}

func TestWreathTreesAndGrids(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	runWreath(t, graph.RandomTree(60, rng), false)
	runWreath(t, graph.Grid(6, 8), false)
	runWreath(t, graph.Caterpillar(15, 2), false)
}

// TestWreathAndThinOnRingAndTree runs both constructions on a ring
// and a random tree of 96 nodes, shapes no other test gives the thin one.
func TestWreathAndThinOnRingAndTree(t *testing.T) {
	t.Parallel()
	const n = 96
	for _, thin := range []bool{false, true} {
		runWreath(t, graph.Ring(n), thin)
		runWreath(t, graph.RandomTree(n, rand.New(rand.NewSource(7))), thin)
	}
}

func TestWreathComplexity(t *testing.T) {
	t.Parallel()
	for _, n := range []int{64, 256} {
		res := runWreath(t, graph.Line(n), false)
		met := res.Metrics
		logn := bits.Len(uint(n))
		// O(log^2 n) time: phases of Θ(log n) rounds, O(log n) phases.
		if maxR := WreathPhaseLength(n, 2) * (3*logn + 8); res.Rounds > maxR {
			t.Errorf("n=%d: %d rounds > %d", n, res.Rounds, maxR)
		}
		// O(n) active edges per round beyond the original graph.
		if met.MaxActivatedEdges > 4*n {
			t.Errorf("n=%d: %d activated edges alive > 4n", n, met.MaxActivatedEdges)
		}
		// O(n log^2 n) total activations.
		if bound := 4 * n * logn * logn; met.TotalActivations > bound {
			t.Errorf("n=%d: %d activations > %d", n, met.TotalActivations, bound)
		}
	}
}

func TestThinWreathSmall(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 3, 5, 8, 16} {
		runWreath(t, graph.Line(n), true)
	}
}

func TestThinWreathDiameterAndDegree(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	g, err := graph.RandomBoundedDegree(200, 4, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	res := runWreath(t, g, true)
	final := res.History.CurrentClone()
	umax := g.MaxID()
	// Theorem 5.1: the thin gadget's diameter beats the binary tree's.
	depth := final.Eccentricity(umax)
	binDepth := bits.Len(uint(200)) - 1 // 7
	if depth > binDepth {
		t.Errorf("thin wreath depth %d, want <= binary %d", depth, binDepth)
	}
	// Polylogarithmic degree.
	b := WreathBranching(200, true)
	if final.MaxDegree() > b+1 {
		t.Errorf("max degree %d > b+1 = %d", final.MaxDegree(), b+1)
	}
	if res.Metrics.MaxActivatedDegree > b+10 {
		t.Errorf("max activated degree %d", res.Metrics.MaxActivatedDegree)
	}
}

// Property: wreath on random bounded-degree graphs with permuted IDs
// always yields the Depth-log n tree with the right leader.
func TestWreathProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%60 + 2
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.RandomBoundedDegree(n, 3, n/3, rng)
		if err != nil {
			return false
		}
		g = graph.PermuteIDs(g, rng)
		res, err := sim.Run(g, NewGraphToWreathFactory(),
			sim.WithConnectivityCheck(),
			sim.WithMaxRounds(WreathMaxRounds(n, 2)))
		if err != nil {
			return false
		}
		umax := g.MaxID()
		if err := tasks.VerifyLeaderElection(res, umax); err != nil {
			return false
		}
		return tasks.VerifyDepthTree(res.History.CurrentClone(), umax, bits.Len(uint(n))+1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
