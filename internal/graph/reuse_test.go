package graph

import (
	"math/rand"
	"testing"
)

// equalGraphs compares node sets and canonical edge lists.
func equalGraphs(t *testing.T, want, got *Graph, context string) {
	t.Helper()
	wn, gn := want.Nodes(), got.Nodes()
	if len(wn) != len(gn) {
		t.Fatalf("%s: %d nodes, want %d", context, len(gn), len(wn))
	}
	for i := range wn {
		if wn[i] != gn[i] {
			t.Fatalf("%s: node[%d] = %d, want %d", context, i, gn[i], wn[i])
		}
	}
	we, ge := want.Edges(), got.Edges()
	if len(we) != len(ge) {
		t.Fatalf("%s: %d edges, want %d", context, len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("%s: edge[%d] = %v, want %v", context, i, ge[i], we[i])
		}
	}
	if want.MaxID() != got.MaxID() {
		t.Fatalf("%s: MaxID = %d, want %d", context, got.MaxID(), want.MaxID())
	}
}

// TestIntoVariantsMatchFreshGenerators drives every *Into generator
// through one shared receiver across different shapes and sizes —
// including shrinking builds, where stale state would leak — and
// checks each build against the fresh-graph generator.
func TestIntoVariantsMatchFreshGenerators(t *testing.T) {
	g := New()
	tmp := New()
	for _, n := range []int{64, 9, 33, 2, 17} {
		equalGraphs(t, Line(n), LineInto(g, n), "LineInto")
		equalGraphs(t, Ring(n), RingInto(g, n), "RingInto")
		equalGraphs(t, Star(n), StarInto(g, n), "StarInto")

		seed := int64(100 + n)
		equalGraphs(t, RandomTree(n, rand.New(rand.NewSource(seed))),
			RandomTreeInto(g, n, rand.New(rand.NewSource(seed))), "RandomTreeInto")
		equalGraphs(t, RandomConnected(n, n, rand.New(rand.NewSource(seed))),
			RandomConnectedInto(g, n, n, rand.New(rand.NewSource(seed))), "RandomConnectedInto")

		want, err := RandomBoundedDegree(n, 4, n/2, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RandomBoundedDegreeInto(g, n, 4, n/2, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		equalGraphs(t, want, got, "RandomBoundedDegreeInto")

		base := RandomConnected(n, n, rand.New(rand.NewSource(seed)))
		equalGraphs(t, PermuteIDs(base, rand.New(rand.NewSource(seed))),
			PermuteIDsInto(tmp, base, rand.New(rand.NewSource(seed))), "PermuteIDsInto")
	}
}

// TestResetRetainsCapacity checks that rebuilding the same shape into
// a reset graph reaches allocation-free steady state: the slot table,
// ID slice and adjacency lists must all be reused.
func TestResetRetainsCapacity(t *testing.T) {
	g := New()
	RingInto(g, 512)
	allocs := testing.AllocsPerRun(20, func() {
		RingInto(g, 512)
	})
	if allocs > 0 {
		t.Fatalf("RingInto into a warm receiver allocates %.1f/op, want 0", allocs)
	}
}

// TestResetYieldsEmptyUsableGraph pins Reset's contract directly.
func TestResetYieldsEmptyUsableGraph(t *testing.T) {
	g := Ring(16)
	g.Reset()
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.MaxID() != -1 {
		t.Fatalf("after Reset: n=%d m=%d maxID=%d", g.NumNodes(), g.NumEdges(), g.MaxID())
	}
	if g.HasNode(3) || g.HasEdge(3, 4) || g.Degree(3) != 0 {
		t.Fatal("reset graph still answers for old nodes")
	}
	g.MustAddEdge(7, 9)
	if !g.HasEdge(7, 9) || g.NumNodes() != 2 || g.MaxID() != 9 {
		t.Fatalf("rebuild after Reset broken: %v", g)
	}
	if nbrs := g.Neighbors(7); len(nbrs) != 1 || nbrs[0] != 9 {
		t.Fatalf("Neighbors(7) = %v after rebuild", g.Neighbors(7))
	}
	// AddNode(7) brought IDs 0..6 back into range, AddNode(9) ID 8:
	// none of them is a node, and none has the ring's neighbors.
	for _, u := range []ID{0, 3, 6, 8, 10, 15} {
		if g.HasNode(u) || g.Degree(u) != 0 || g.HasEdge(u, 7) {
			t.Fatalf("ID %d of the ring survived Reset as a node", u)
		}
	}
}

// TestResetRebuildsDifferentNodeSet rebuilds, on one receiver, a node
// set that overlaps the previous one only in part, after a build whose
// hub was bitset-backed: every reclaimed array must come back empty
// and every ID not re-added absent.
func TestResetRebuildsDifferentNodeSet(t *testing.T) {
	g := newBitsetProneGraph()
	StarInto(g, 32) // hub 0 is bitset-backed, 1..31 hold {0}
	if !g.engaged(0) {
		t.Fatal("hub not promoted")
	}
	g.Reset()
	want := New()
	for _, e := range []Edge{{3, 0}, {3, 20}, {20, 21}, {40, 21}} {
		g.MustAddEdge(e.A, e.B)
		want.MustAddEdge(e.A, e.B)
	}
	g.AddNode(5)
	want.AddNode(5)
	equalGraphs(t, want, g, "rebuild")
	if g.anyEngaged() {
		t.Fatal("a rebuilt node came back bitset-backed")
	}
	for u := ID(-1); u <= 41; u++ {
		if g.HasNode(u) != want.HasNode(u) || !equalIDs(g.Neighbors(u), want.Neighbors(u)) {
			t.Fatalf("ID %d: HasNode %v, Neighbors %v; want %v, %v",
				u, g.HasNode(u), g.Neighbors(u), want.HasNode(u), want.Neighbors(u))
		}
	}
}
