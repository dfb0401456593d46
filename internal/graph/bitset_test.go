package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// newBitsetProneGraph returns a graph whose slots promote to bitsets
// at degree 3, so tiny randomized graphs exercise both representations
// and the transitions between them.
func newBitsetProneGraph() *Graph {
	g := New()
	g.minDeg = 3
	return g
}

func (g *Graph) anyEngaged() bool {
	for _, s := range g.state {
		if s >= 0 {
			return true
		}
	}
	return false
}

// TestBitsetDifferential drives the hybrid Graph — with the promotion
// threshold forced low enough that slots flip to bitsets and back
// constantly — against the map reference model over thousands of
// randomized mutation sequences, asserting observational equality of
// HasEdge, Degree, Neighbors (and its allocation-free variants),
// HaveCommonNeighbor and Edges canonical order at every checkpoint.
func TestBitsetDifferential(t *testing.T) {
	t.Parallel()
	const (
		seeds = 300
		steps = 400
	)
	engagedSequences := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		idSpace, pool := gappyIDs(rng)
		g := newBitsetProneGraph()
		ref := newMapGraph()
		sawEngaged := false
		for step := 0; step < steps; step++ {
			u := ID(rng.Intn(idSpace))
			v := ID(rng.Intn(idSpace))
			switch rng.Intn(10) {
			case 0:
				u = pool[rng.Intn(len(pool))]
				g.AddNode(u)
				ref.addNode(u)
			case 1, 2, 3, 4, 5:
				u, v = pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
				err := g.AddEdge(u, v)
				ok := ref.addEdge(u, v)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: AddEdge(%d,%d) err=%v, ref ok=%v", seed, step, u, v, err, ok)
				}
			case 6, 7:
				if got, want := g.RemoveEdge(u, v), ref.removeEdge(u, v); got != want {
					t.Fatalf("seed %d step %d: RemoveEdge(%d,%d) = %v, want %v", seed, step, u, v, got, want)
				}
			case 8:
				if got, want := g.HasEdge(u, v), ref.hasEdge(u, v); got != want {
					t.Fatalf("seed %d step %d: HasEdge(%d,%d) = %v, want %v", seed, step, u, v, got, want)
				}
			case 9:
				if got, want := g.Degree(u), len(ref.adj[u]); got != want {
					t.Fatalf("seed %d step %d: Degree(%d) = %d, want %d", seed, step, u, got, want)
				}
			}
			if g.NumEdges() != ref.numEdges() {
				t.Fatalf("seed %d step %d: NumEdges = %d, want %d", seed, step, g.NumEdges(), ref.numEdges())
			}
			sawEngaged = sawEngaged || g.anyEngaged()
			// Periodic deep checkpoint; every step would be quadratic.
			if step%37 != 0 {
				continue
			}
			checkGraphMatchesModel(t, g, ref, seed, step)
		}
		checkGraphMatchesModel(t, g, ref, seed, steps)
		checkNonNodes(t, g, ref, idSpace, seed)
		if sawEngaged {
			engagedSequences++
		}
	}
	// The point of the test is the hybrid paths: almost every sequence
	// must actually have promoted at least one slot.
	if engagedSequences < seeds*9/10 {
		t.Fatalf("only %d/%d sequences engaged the bitset representation", engagedSequences, seeds)
	}
}

// equalIDs compares slice contents, treating nil and empty alike.
func equalIDs(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkGraphMatchesModel compares every observable accessor of g with
// the reference model.
func checkGraphMatchesModel(t *testing.T, g *Graph, ref *mapGraph, seed int64, step int) {
	t.Helper()
	// The dense rows and the state table point at each other: row i
	// is its node's, and every bitset-backed node has one row.
	engaged := 0
	for u, s := range g.state {
		if s >= 0 {
			engaged++
			if int(s) >= len(g.dense) || g.dense[s].id != ID(u) {
				t.Fatalf("seed %d step %d: node %d points at row %d of %d, which is not its", seed, step, u, s, len(g.dense))
			}
		}
	}
	if engaged != len(g.dense) {
		t.Fatalf("seed %d step %d: %d bitset-backed nodes, %d dense rows", seed, step, engaged, len(g.dense))
	}
	if got, want := g.Nodes(), ref.nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d step %d: Nodes() = %v, want %v", seed, step, got, want)
	}
	if got, want := g.MaxDegree(), ref.maxDegree(); got != want {
		t.Fatalf("seed %d step %d: MaxDegree() = %d, want %d", seed, step, got, want)
	}
	for _, u := range ref.nodes() {
		want := ref.neighbors(u)
		if got := g.Neighbors(u); !equalIDs(got, want) {
			t.Fatalf("seed %d step %d: Neighbors(%d) = %v, want %v", seed, step, u, got, want)
		}
		if got := g.NeighborsInto(u, nil); !equalIDs(got, want) {
			t.Fatalf("seed %d step %d: NeighborsInto(%d) = %v, want %v", seed, step, u, got, want)
		}
		if view := g.NeighborsView(u); !equalIDs(view, want) {
			t.Fatalf("seed %d step %d: NeighborsView(%d) = %v, want %v", seed, step, u, view, want)
		}
		each := make([]ID, 0, len(want))
		g.EachNeighbor(u, func(v ID) bool { each = append(each, v); return true })
		if !equalIDs(each, want) {
			t.Fatalf("seed %d step %d: EachNeighbor(%d) = %v, want %v", seed, step, u, each, want)
		}
		if got, want := g.Degree(u), len(ref.adj[u]); got != want {
			t.Fatalf("seed %d step %d: Degree(%d) = %d, want %d", seed, step, u, got, want)
		}
		for _, v := range ref.nodes() {
			if got, want := g.HasEdge(u, v), ref.hasEdge(u, v); got != want {
				t.Fatalf("seed %d step %d: HasEdge(%d,%d) = %v, want %v", seed, step, u, v, got, want)
			}
		}
	}
	// Edges in canonical lexicographic order.
	edges := g.Edges()
	if len(edges) != ref.numEdges() {
		t.Fatalf("seed %d step %d: Edges() len = %d, want %d", seed, step, len(edges), ref.numEdges())
	}
	for i, e := range edges {
		if !ref.hasEdge(e.A, e.B) || e.A >= e.B {
			t.Fatalf("seed %d step %d: bad edge %v", seed, step, e)
		}
		if i > 0 {
			p := edges[i-1]
			if p.A > e.A || (p.A == e.A && p.B >= e.B) {
				t.Fatalf("seed %d step %d: Edges() not sorted at %d: %v, %v", seed, step, i, p, e)
			}
		}
	}
	// HaveCommonNeighbor over all pairs (covers bitset×bitset,
	// bitset×slice and slice×slice combinations as slots flip).
	nodes := ref.nodes()
	for _, u := range nodes {
		for _, v := range nodes {
			want := false
			for w := range ref.adj[u] {
				if _, ok := ref.adj[v][w]; ok {
					want = true
					break
				}
			}
			if got := g.HaveCommonNeighbor(u, v); got != want {
				t.Fatalf("seed %d step %d: HaveCommonNeighbor(%d,%d) = %v, want %v", seed, step, u, v, got, want)
			}
		}
	}
}

// TestBitsetThresholdCrossing grows one hub past the promotion
// threshold, checks the representation actually flipped, shrinks it
// back through the hysteresis band until it demotes, and asserts every
// accessor stays correct across both crossings — including a second
// promotion to verify backing arrays survive the round trip.
func TestBitsetThresholdCrossing(t *testing.T) {
	t.Parallel()
	g := New()
	g.minDeg = 8
	const n = 64
	hub := ID(0)
	for i := ID(1); i < n; i++ {
		g.MustAddEdge(hub, i)
	}
	if !g.engaged(hub) {
		t.Fatalf("hub with degree %d not promoted (threshold %d)", g.Degree(hub), g.promoteThreshold())
	}
	if got := g.Degree(hub); got != n-1 {
		t.Fatalf("Degree(hub) = %d, want %d", got, n-1)
	}
	if !g.HasEdge(hub, 5) || g.HasEdge(5, 7) {
		t.Fatal("bitset membership wrong after promotion")
	}
	if !g.HaveCommonNeighbor(5, 7) {
		t.Fatal("spokes must share the hub")
	}
	// Remove spokes one at a time; correctness must hold through the
	// demotion point, and the hub must eventually be slice-backed.
	for i := ID(1); i < n; i++ {
		if !g.RemoveEdge(hub, i) {
			t.Fatalf("RemoveEdge(hub,%d) = false", i)
		}
		wantDeg := int(n - 1 - i)
		if got := g.Degree(hub); got != wantDeg {
			t.Fatalf("after removing %d: Degree(hub) = %d, want %d", i, got, wantDeg)
		}
		if g.HasEdge(hub, i) {
			t.Fatalf("edge {hub,%d} still present after removal", i)
		}
		if wantDeg > 0 && !g.HasEdge(hub, n-1) {
			t.Fatalf("edge {hub,%d} lost at degree %d", n-1, wantDeg)
		}
		nbrs := g.Neighbors(hub)
		if len(nbrs) != wantDeg {
			t.Fatalf("Neighbors(hub) len = %d, want %d", len(nbrs), wantDeg)
		}
		for j := 1; j < len(nbrs); j++ {
			if nbrs[j-1] >= nbrs[j] {
				t.Fatalf("Neighbors(hub) unsorted: %v", nbrs)
			}
		}
	}
	if g.engaged(hub) {
		t.Fatal("empty hub still bitset-backed: demotion never happened")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	// Second promotion reuses the retained bitset backing array.
	for i := ID(1); i < n; i++ {
		g.MustAddEdge(hub, i)
	}
	if !g.engaged(hub) {
		t.Fatal("hub not re-promoted")
	}
	if got := g.Degree(hub); got != n-1 {
		t.Fatalf("after re-promotion Degree(hub) = %d, want %d", got, n-1)
	}
}

// TestBitsetCanonicalCopySliceBacked pins the CopyCanonicalFrom
// contract the engine depends on: copies of graphs with bitset-backed
// slots come out slice-backed (NeighborsView on initial snapshots must
// stay zero-copy) and edge-identical.
func TestBitsetCanonicalCopySliceBacked(t *testing.T) {
	t.Parallel()
	src := New()
	src.minDeg = 4
	const n = 32
	for i := ID(1); i < n; i++ {
		src.MustAddEdge(0, i)
		if i > 1 {
			src.MustAddEdge(i-1, i)
		}
	}
	if !src.anyEngaged() {
		t.Fatal("source graph never engaged a bitset")
	}
	dst := New()
	dst.CopyCanonicalFrom(src)
	if dst.anyEngaged() {
		t.Fatal("canonical copy has bitset-backed slots")
	}
	if !reflect.DeepEqual(dst.Edges(), src.Edges()) {
		t.Fatal("canonical copy edges differ from source")
	}
	for i := ID(0); i < n; i++ {
		if !reflect.DeepEqual(dst.Neighbors(i), src.Neighbors(i)) {
			t.Fatalf("Neighbors(%d) differ between copy and source", i)
		}
	}
}

// TestIDSetDifferential drives IDSet against a map over random IDs
// that are not ranks (gaps, large values), checking every method.
func TestIDSetDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		span := 1 + rng.Intn(700)
		var s, other IDSet
		ref, refOther := map[ID]bool{}, map[ID]bool{}
		for i := rng.Intn(2 * span); i > 0; i-- {
			v := ID(rng.Intn(span))
			s.Add(v)
			ref[v] = true
		}
		for i := rng.Intn(2 * span); i > 0; i-- {
			v := ID(rng.Intn(span))
			other.Add(v)
			refOther[v] = true
		}
		check := func(s IDSet, ref map[ID]bool) {
			t.Helper()
			max := ID(-1)
			for v := ID(0); v < ID(span+70); v++ {
				if s.Has(v) != ref[v] {
					t.Fatalf("trial %d: Has(%d) = %v", trial, v, s.Has(v))
				}
				if ref[v] {
					max = v
				}
			}
			if s.Max() != max {
				t.Fatalf("trial %d: Max %d, want %d", trial, s.Max(), max)
			}
		}
		check(s, ref)

		var snapshot IDSet
		snapshot.CopyFrom(other)
		var fresh, wantFresh []ID
		for v := ID(0); v < ID(span); v++ {
			if refOther[v] && !ref[v] {
				wantFresh = append(wantFresh, v)
				ref[v] = true
			}
		}
		added := s.Merge(other, func(v ID) {
			if !s.Has(v) {
				t.Fatalf("trial %d: each(%d) before the insert", trial, v)
			}
			fresh = append(fresh, v)
		})
		if added != len(wantFresh) || !slices.Equal(fresh, wantFresh) {
			t.Fatalf("trial %d: Merge added %d %v, want %d %v", trial, added, fresh, len(wantFresh), wantFresh)
		}
		check(s, ref)
		check(other, refOther) // Merge reads src only
		check(snapshot, refOther)
		if again := s.Merge(other, nil); again != 0 {
			t.Fatalf("trial %d: second Merge added %d", trial, again)
		}

		s.Reset()
		check(s, map[ID]bool{})
		for i, word := range s[:cap(s)] {
			if word != 0 {
				t.Fatalf("trial %d: Reset left word %d = %#x in the backing array", trial, i, word)
			}
		}
	}
}
