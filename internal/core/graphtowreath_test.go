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
// post-conditions and every measure against WreathBound.
func runWreath(t *testing.T, g *graph.Graph, thin bool, extra ...sim.Option) *sim.Result {
	t.Helper()
	n := g.NumNodes()
	factory := NewGraphToWreathFactory()
	if thin {
		factory = NewGraphToThinWreathFactory()
	}
	b := WreathBranching(n, thin)
	res, err := sim.Run(g, factory, append([]sim.Option{
		sim.WithConnectivityCheck(),
		sim.WithMaxRounds(WreathMaxRounds(n, b))}, extra...)...)
	if err != nil {
		t.Fatalf("wreath(thin=%v) on n=%d: %v", thin, n, err)
	}
	umax := g.MaxID()
	final := res.History.CurrentClone()
	if err := tasks.VerifyLeaderElection(res, umax); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	// Depth-log n Tree: spanning tree rooted at u_max of logarithmic
	// depth.
	bound := WreathBound(n, b)
	if err := tasks.VerifyDepthTree(final, umax, bound.Depth); err != nil {
		t.Fatalf("n=%d: %v (m=%d)", n, err, final.NumEdges())
	}
	if err := bound.Check(tasks.Cost(res.Metrics)); err != nil {
		t.Fatalf("thin=%v n=%d: %v", thin, n, err)
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
		// Theorem 4.2: O(1) maximum activated degree, which runWreath
		// holds to WreathBound(n, 2): 12.
		runWreath(t, g, false)
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

// TestWreathComplexity: Theorem 4.2 on the spanning line, the longest
// diameter; runWreath holds each run to WreathBound.
func TestWreathComplexity(t *testing.T) {
	t.Parallel()
	for _, n := range []int{64, 256} {
		runWreath(t, graph.Line(n), false)
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
	// runWreath held the activated degree to WreathBound(200, b): b+10.
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
		bound := WreathBound(n, 2)
		return tasks.VerifyDepthTree(res.History.CurrentClone(), umax, bound.Depth) == nil &&
			bound.Check(tasks.Cost(res.Metrics)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
