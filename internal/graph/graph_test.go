package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	t.Parallel()
	e := NewEdge(5, 2)
	if e.A != 2 || e.B != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want {2,5}", e)
	}
	if NewEdge(2, 5) != e {
		t.Fatalf("NewEdge is not order independent")
	}
}

func TestEdgeOther(t *testing.T) {
	t.Parallel()
	e := NewEdge(1, 9)
	if got := e.Other(1); got != 9 {
		t.Errorf("Other(1) = %d, want 9", got)
	}
	if got := e.Other(9); got != 1 {
		t.Errorf("Other(9) = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Other on non-endpoint should panic")
		}
	}()
	e.Other(3)
}

func TestAddEdgeBasics(t *testing.T) {
	t.Parallel()
	g := New()
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatalf("self-loop accepted")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatalf("edge should be present in both directions")
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("got n=%d m=%d, want 2, 1", g.NumNodes(), g.NumEdges())
	}
	// Duplicate insertion is a no-op.
	if err := g.AddEdge(2, 1); err != nil {
		t.Fatalf("duplicate AddEdge: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edge changed edge count")
	}
}

func TestRemoveEdge(t *testing.T) {
	t.Parallel()
	g := Line(4)
	if !g.RemoveEdge(1, 2) {
		t.Fatalf("RemoveEdge(1,2) = false, want true")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatalf("second RemoveEdge(1,2) = true, want false")
	}
	if g.HasEdge(2, 1) {
		t.Fatalf("edge still present after removal")
	}
	if g.IsConnected() {
		t.Fatalf("line with middle edge removed should be disconnected")
	}
}

func TestNodesAndNeighborsSorted(t *testing.T) {
	t.Parallel()
	g := New()
	g.MustAddEdge(7, 3)
	g.MustAddEdge(7, 5)
	g.MustAddEdge(7, 1)
	nodes := g.Nodes()
	want := []ID{1, 3, 5, 7}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes() = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", nodes, want)
		}
	}
	nbrs := g.Neighbors(7)
	wantN := []ID{1, 3, 5}
	for i := range wantN {
		if nbrs[i] != wantN[i] {
			t.Fatalf("Neighbors(7) = %v, want %v", nbrs, wantN)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	g := Ring(5)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatalf("mutating clone affected original")
	}
	if c.NumEdges() != g.NumEdges()-1 {
		t.Fatalf("clone edge count wrong")
	}
}

func TestMaxID(t *testing.T) {
	t.Parallel()
	if got := New().MaxID(); got != -1 {
		t.Errorf("empty MaxID = %d, want -1", got)
	}
	if got := Line(10).MaxID(); got != 9 {
		t.Errorf("Line(10).MaxID = %d, want 9", got)
	}
}

func TestLine(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 10, 100} {
		g := Line(n)
		if g.NumNodes() != n {
			t.Fatalf("Line(%d) has %d nodes", n, g.NumNodes())
		}
		if want := n - 1; n > 0 && g.NumEdges() != want {
			t.Fatalf("Line(%d) has %d edges, want %d", n, g.NumEdges(), want)
		}
		if !g.IsConnected() {
			t.Fatalf("Line(%d) disconnected", n)
		}
		if n >= 2 && g.Diameter() != n-1 {
			t.Fatalf("Line(%d) diameter = %d, want %d", n, g.Diameter(), n-1)
		}
	}
}

func TestRing(t *testing.T) {
	t.Parallel()
	g := Ring(6)
	if g.NumEdges() != 6 {
		t.Fatalf("Ring(6) edges = %d, want 6", g.NumEdges())
	}
	for _, u := range g.Nodes() {
		if g.Degree(u) != 2 {
			t.Fatalf("Ring(6) degree(%d) = %d, want 2", u, g.Degree(u))
		}
	}
	if g.Diameter() != 3 {
		t.Fatalf("Ring(6) diameter = %d, want 3", g.Diameter())
	}
}

func TestStarAndComplete(t *testing.T) {
	t.Parallel()
	s := Star(8)
	if s.Degree(0) != 7 || s.Diameter() != 2 {
		t.Fatalf("Star(8): center degree %d, diameter %d", s.Degree(0), s.Diameter())
	}
	k := Complete(6)
	if k.NumEdges() != 15 || k.Diameter() != 1 {
		t.Fatalf("Complete(6): m=%d diam=%d", k.NumEdges(), k.Diameter())
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 7, 15, 20, 31} {
		g := CompleteBinaryTree(n)
		if !g.IsTree() {
			t.Fatalf("CompleteBinaryTree(%d) is not a tree", n)
		}
		if g.MaxDegree() > 3 {
			t.Fatalf("CompleteBinaryTree(%d) max degree %d > 3", n, g.MaxDegree())
		}
	}
	// Depth of a 15-node complete binary tree is 3.
	g := CompleteBinaryTree(15)
	if ecc := g.Eccentricity(0); ecc != 3 {
		t.Fatalf("CBT(15) root eccentricity = %d, want 3", ecc)
	}
}

func TestGrid(t *testing.T) {
	t.Parallel()
	g := Grid(3, 4)
	if g.NumNodes() != 12 {
		t.Fatalf("Grid(3,4) nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 3*3+2*4 {
		t.Fatalf("Grid(3,4) edges = %d, want 17", g.NumEdges())
	}
	if g.Diameter() != 5 {
		t.Fatalf("Grid(3,4) diameter = %d, want 5", g.Diameter())
	}
}

func TestCaterpillar(t *testing.T) {
	t.Parallel()
	g := Caterpillar(5, 2)
	if g.NumNodes() != 15 {
		t.Fatalf("Caterpillar(5,2) nodes = %d, want 15", g.NumNodes())
	}
	if !g.IsTree() {
		t.Fatalf("caterpillar must be a tree")
	}
}

func TestLollipop(t *testing.T) {
	t.Parallel()
	g := Lollipop(5, 4)
	if g.NumNodes() != 9 {
		t.Fatalf("Lollipop(5,4) nodes = %d, want 9", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatalf("lollipop disconnected")
	}
	if g.Diameter() != 5 {
		t.Fatalf("Lollipop(5,4) diameter = %d, want 5", g.Diameter())
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{1, 2, 3, 4, 8, 33, 100} {
			g := RandomTree(n, rng)
			if g.NumNodes() != n {
				t.Fatalf("seed %d n %d: nodes = %d", seed, n, g.NumNodes())
			}
			if !g.IsTree() {
				t.Fatalf("seed %d n %d: not a tree (m=%d, connected=%v)",
					seed, n, g.NumEdges(), g.IsConnected())
			}
		}
	}
}

func TestRandomConnected(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	g := RandomConnected(50, 60, rng)
	if !g.IsConnected() {
		t.Fatalf("RandomConnected output disconnected")
	}
	if g.NumEdges() != 49+60 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), 109)
	}
	// extra beyond the complete graph saturates rather than looping.
	small := RandomConnected(4, 100, rng)
	if small.NumEdges() != 6 {
		t.Fatalf("saturated K4 edges = %d, want 6", small.NumEdges())
	}
}

func TestRandomBoundedDegree(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	g, err := RandomBoundedDegree(64, 4, 40, rng)
	if err != nil {
		t.Fatalf("RandomBoundedDegree: %v", err)
	}
	if !g.IsConnected() {
		t.Fatalf("bounded-degree graph disconnected")
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("max degree %d > 4", g.MaxDegree())
	}
	if _, err := RandomBoundedDegree(10, 1, 0, rng); err == nil {
		t.Fatalf("maxDeg=1 should be rejected")
	}
}

func TestPermuteIDsPreservesStructure(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	g := RandomConnected(40, 30, rng)
	p := PermuteIDs(g, rng)
	if p.NumNodes() != g.NumNodes() || p.NumEdges() != g.NumEdges() {
		t.Fatalf("permuted graph changed size")
	}
	if p.Diameter() != g.Diameter() {
		t.Fatalf("permuted diameter %d != %d", p.Diameter(), g.Diameter())
	}
	degG := map[int]int{}
	degP := map[int]int{}
	for _, u := range g.Nodes() {
		degG[g.Degree(u)]++
	}
	for _, u := range p.Nodes() {
		degP[p.Degree(u)]++
	}
	for d, c := range degG {
		if degP[d] != c {
			t.Fatalf("degree histogram differs at %d: %d vs %d", d, c, degP[d])
		}
	}
}

func TestBFSAndDist(t *testing.T) {
	t.Parallel()
	g := Line(6)
	d := g.BFS(0)
	for i := 0; i < 6; i++ {
		if d[ID(i)] != i {
			t.Fatalf("BFS dist to %d = %d, want %d", i, d[ID(i)], i)
		}
	}
	if g.Dist(0, 5) != 5 || g.Dist(5, 0) != 5 || g.Dist(2, 2) != 0 {
		t.Fatalf("Dist wrong on line")
	}
	g2 := New()
	g2.AddNode(0)
	g2.AddNode(1)
	if g2.Dist(0, 1) != -1 {
		t.Fatalf("Dist across components should be -1")
	}
}

func TestEccentricityAndDiameterDisconnected(t *testing.T) {
	t.Parallel()
	g := New()
	g.MustAddEdge(0, 1)
	g.AddNode(2)
	if g.Eccentricity(0) != -1 {
		t.Fatalf("eccentricity in disconnected graph should be -1")
	}
	if g.Diameter() != -1 {
		t.Fatalf("diameter of disconnected graph should be -1")
	}
	if g.ApproxDiameter() != -1 {
		t.Fatalf("approx diameter of disconnected graph should be -1")
	}
}

func TestApproxDiameterOnTrees(t *testing.T) {
	t.Parallel()
	// Double BFS is exact on trees.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		g := RandomTree(60, rng)
		if got, want := g.ApproxDiameter(), g.Diameter(); got != want {
			t.Fatalf("tree approx diameter %d != exact %d", got, want)
		}
	}
}

func TestSpanningTree(t *testing.T) {
	t.Parallel()
	g := Grid(4, 4)
	parent, ok := g.SpanningTree(0)
	if !ok {
		t.Fatalf("spanning tree of connected graph failed")
	}
	if len(parent) != 16 || parent[0] != 0 {
		t.Fatalf("bad parent map")
	}
	// Every parent edge must exist in g.
	for u, p := range parent {
		if u != p && !g.HasEdge(u, p) {
			t.Fatalf("parent edge {%d,%d} not in graph", u, p)
		}
	}
	if TreeDepth(parent) != 6 {
		t.Fatalf("BFS tree depth = %d, want 6 (distance to far corner)", TreeDepth(parent))
	}
	bad := New()
	bad.AddNode(1)
	bad.AddNode(2)
	if _, ok := bad.SpanningTree(1); ok {
		t.Fatalf("spanning tree of disconnected graph should fail")
	}
}

func TestEulerTour(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 5, 17, 40} {
		g := RandomTree(n, rng)
		root := g.MaxID()
		tour, ok := g.EulerTour(root)
		if !ok {
			t.Fatalf("n=%d: Euler tour failed", n)
		}
		if want := 2*(n-1) + 1; n >= 1 && len(tour) != want {
			t.Fatalf("n=%d: tour length %d, want %d", n, len(tour), want)
		}
		if tour[0] != root || tour[len(tour)-1] != root {
			t.Fatalf("tour should start and end at root")
		}
		visits := map[ID]bool{}
		for i := 0; i+1 < len(tour); i++ {
			if !g.HasEdge(tour[i], tour[i+1]) {
				t.Fatalf("tour step {%d,%d} is not an edge", tour[i], tour[i+1])
			}
			visits[tour[i]] = true
		}
		visits[tour[len(tour)-1]] = true
		if len(visits) != n {
			t.Fatalf("tour visits %d of %d nodes", len(visits), n)
		}
	}
}

func TestEulerTourEdgeMultiplicity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9))
	g := RandomTree(30, rng)
	tour, ok := g.EulerTour(g.MaxID())
	if !ok {
		t.Fatal("tour failed")
	}
	count := map[Edge]int{}
	for i := 0; i+1 < len(tour); i++ {
		count[NewEdge(tour[i], tour[i+1])]++
	}
	for e, c := range count {
		if c != 2 {
			t.Fatalf("tree edge %v traversed %d times, want 2", e, c)
		}
	}
}

func TestIsTree(t *testing.T) {
	t.Parallel()
	if !Line(10).IsTree() {
		t.Errorf("line should be a tree")
	}
	if Ring(10).IsTree() {
		t.Errorf("ring should not be a tree")
	}
	if !New().IsTree() {
		t.Errorf("empty graph counts as a tree")
	}
}

// Property: RandomTree produces connected acyclic graphs for arbitrary
// seeds and sizes.
func TestRandomTreeProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%200 + 1
		g := RandomTree(n, rand.New(rand.NewSource(seed)))
		return g.IsTree() && g.NumNodes() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Euler tour of any random tree has exactly 2(n-1)+1
// stops and every consecutive pair is a tree edge.
func TestEulerTourProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%120 + 1
		g := RandomTree(n, rand.New(rand.NewSource(seed)))
		tour, ok := g.EulerTour(g.MaxID())
		if !ok || len(tour) != 2*(n-1)+1 {
			return false
		}
		for i := 0; i+1 < len(tour); i++ {
			if !g.HasEdge(tour[i], tour[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeIDRejected: a negative ID is not an ID. It used to be
// accepted and crash the first bitset it met.
func TestNegativeIDRejected(t *testing.T) {
	t.Parallel()
	g := Star(8)
	if err := g.AddEdge(-1, 3); err == nil {
		t.Error("AddEdge(-1, 3) succeeded")
	}
	if err := g.AddEdge(3, -2); err == nil {
		t.Error("AddEdge(3, -2) succeeded")
	}
	if g.NumNodes() != 8 || g.NumEdges() != 7 {
		t.Errorf("rejected edges changed the graph: %v", g)
	}
	func() {
		defer func() {
			if r := recover(); r != "graph: negative node ID -1" {
				t.Errorf("AddNode(-1) panicked with %v", r)
			}
		}()
		g.AddNode(-1)
		t.Error("AddNode(-1) returned")
	}()
	for _, u := range []ID{-1, -64, 8, math.MaxInt32} {
		if g.HasNode(u) || g.HasEdge(u, 0) || g.HasEdge(0, u) || g.Degree(u) != 0 ||
			len(g.Neighbors(u)) != 0 || g.HaveCommonNeighbor(u, 1) || g.RemoveEdge(0, u) {
			t.Errorf("ID %d answers like a node", u)
		}
	}
}
