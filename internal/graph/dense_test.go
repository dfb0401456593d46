package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapGraph is the original map-of-maps implementation, kept here as the
// reference model for the differential test: the dense, index-addressed
// Graph must be observationally identical to it under any sequence of
// add/remove/query operations.
type mapGraph struct {
	adj map[ID]map[ID]struct{}
}

func newMapGraph() *mapGraph { return &mapGraph{adj: make(map[ID]map[ID]struct{})} }

func (g *mapGraph) addNode(u ID) {
	if _, ok := g.adj[u]; !ok {
		g.adj[u] = make(map[ID]struct{})
	}
}

func (g *mapGraph) addEdge(u, v ID) bool {
	if u == v {
		return false
	}
	g.addNode(u)
	g.addNode(v)
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	return true
}

func (g *mapGraph) removeEdge(u, v ID) bool {
	if _, ok := g.adj[u][v]; !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	return true
}

func (g *mapGraph) hasEdge(u, v ID) bool {
	_, ok := g.adj[u][v]
	return ok
}

func (g *mapGraph) numEdges() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

func (g *mapGraph) nodes() []ID {
	out := make([]ID, 0, len(g.adj))
	for u := range g.adj {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *mapGraph) neighbors(u ID) []ID {
	out := make([]ID, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *mapGraph) maxID() ID {
	m := ID(-1)
	for u := range g.adj {
		if u > m {
			m = u
		}
	}
	return m
}

func (g *mapGraph) maxDegree() int {
	m := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > m {
			m = len(nbrs)
		}
	}
	return m
}

// gappyIDs draws an ID space of 8–300 and the at most 40 IDs of it that
// a sequence may add. A small space fills up, which forces collisions;
// a large one leaves gaps — IDs inside the range that are never added
// and must answer like unknown ones. Mutations draw from the pool,
// queries from the whole space.
func gappyIDs(rng *rand.Rand) (space int, pool []ID) {
	space = rng.Intn(293) + 8
	for _, u := range rng.Perm(space)[:min(space, 40)] {
		pool = append(pool, ID(u))
	}
	return space, pool
}

// checkNonNodes asserts that every ID of -1..space that the model does
// not hold — negative, a gap, or past MaxID — is no node of g, has no
// neighbors and is on no edge.
func checkNonNodes(t *testing.T, g *Graph, ref *mapGraph, space int, seed int64) {
	t.Helper()
	nodes := ref.nodes()
	for x := ID(-1); x <= ID(space); x++ {
		if _, ok := ref.adj[x]; ok {
			continue
		}
		if g.HasNode(x) || g.Degree(x) != 0 || len(g.Neighbors(x)) != 0 ||
			len(g.NeighborsInto(x, nil)) != 0 || g.NeighborsView(x) != nil {
			t.Fatalf("seed %d: non-node %d: HasNode %v, Degree %d, Neighbors %v",
				seed, x, g.HasNode(x), g.Degree(x), g.Neighbors(x))
		}
		g.EachNeighbor(x, func(v ID) bool {
			t.Fatalf("seed %d: EachNeighbor(%d) visited %d", seed, x, v)
			return false
		})
		for _, u := range nodes {
			if g.HasEdge(x, u) || g.HasEdge(u, x) || g.HaveCommonNeighbor(x, u) || g.HaveCommonNeighbor(u, x) || g.RemoveEdge(u, x) {
				t.Fatalf("seed %d: non-node %d is on an edge or a path with %d", seed, x, u)
			}
		}
	}
}

// TestDenseMatchesMapModel drives the dense Graph and the map reference
// through identical randomized add/remove/query sequences and asserts
// identical observable behavior at every step.
func TestDenseMatchesMapModel(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idSpace, pool := gappyIDs(rng)
		dense := New()
		ref := newMapGraph()
		for step := 0; step < 600; step++ {
			u := ID(rng.Intn(idSpace))
			v := ID(rng.Intn(idSpace))
			switch rng.Intn(10) {
			case 0, 1:
				u = pool[rng.Intn(len(pool))]
				dense.AddNode(u)
				ref.addNode(u)
			case 2, 3, 4, 5:
				u, v = pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
				err := dense.AddEdge(u, v)
				ok := ref.addEdge(u, v)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: AddEdge(%d,%d) err=%v, ref ok=%v", seed, step, u, v, err, ok)
				}
			case 6, 7:
				if got, want := dense.RemoveEdge(u, v), ref.removeEdge(u, v); got != want {
					t.Fatalf("seed %d step %d: RemoveEdge(%d,%d) = %v, want %v", seed, step, u, v, got, want)
				}
			case 8:
				if got, want := dense.HasEdge(u, v), ref.hasEdge(u, v); got != want {
					t.Fatalf("seed %d step %d: HasEdge(%d,%d) = %v, want %v", seed, step, u, v, got, want)
				}
			case 9:
				if got, want := dense.Degree(u), len(ref.adj[u]); got != want {
					t.Fatalf("seed %d step %d: Degree(%d) = %d, want %d", seed, step, u, got, want)
				}
			}
			// Cheap invariants every step.
			if dense.NumNodes() != len(ref.adj) {
				t.Fatalf("seed %d step %d: NumNodes = %d, want %d", seed, step, dense.NumNodes(), len(ref.adj))
			}
			if dense.NumEdges() != ref.numEdges() {
				t.Fatalf("seed %d step %d: NumEdges = %d, want %d", seed, step, dense.NumEdges(), ref.numEdges())
			}
		}
		// Full-state comparison at the end of every sequence.
		if got, want := dense.Nodes(), ref.nodes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Nodes() = %v, want %v", seed, got, want)
		}
		if got, want := dense.MaxID(), ref.maxID(); got != want {
			t.Fatalf("seed %d: MaxID() = %d, want %d", seed, got, want)
		}
		if got, want := dense.MaxDegree(), ref.maxDegree(); got != want {
			t.Fatalf("seed %d: MaxDegree() = %d, want %d", seed, got, want)
		}
		checkNonNodes(t, dense, ref, idSpace, seed)
		for _, u := range ref.nodes() {
			got, want := dense.Neighbors(u), ref.neighbors(u)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Neighbors(%d) = %v, want %v", seed, u, got, want)
			}
			// The allocation-free accessors must agree with Neighbors.
			into := dense.NeighborsInto(u, nil)
			if !reflect.DeepEqual([]ID(into), got) {
				t.Fatalf("seed %d: NeighborsInto(%d) = %v, want %v", seed, u, into, got)
			}
			var each []ID
			dense.EachNeighbor(u, func(v ID) bool { each = append(each, v); return true })
			if len(each) != len(got) {
				t.Fatalf("seed %d: EachNeighbor(%d) visited %d, want %d", seed, u, len(each), len(got))
			}
			for i := range each {
				if each[i] != got[i] {
					t.Fatalf("seed %d: EachNeighbor(%d) = %v, want %v", seed, u, each, got)
				}
			}
		}
		// Edges() canonical order and HaveCommonNeighbor spot checks.
		edges := dense.Edges()
		if len(edges) != ref.numEdges() {
			t.Fatalf("seed %d: Edges() len = %d, want %d", seed, len(edges), ref.numEdges())
		}
		for i := 1; i < len(edges); i++ {
			p, q := edges[i-1], edges[i]
			if p.A > q.A || (p.A == q.A && p.B >= q.B) {
				t.Fatalf("seed %d: Edges() not sorted at %d: %v, %v", seed, i, p, q)
			}
		}
		for trial := 0; trial < 50; trial++ {
			u := ID(rng.Intn(idSpace))
			v := ID(rng.Intn(idSpace))
			want := false
			for w := range ref.adj[u] {
				if _, ok := ref.adj[v][w]; ok {
					want = true
					break
				}
			}
			if got := dense.HaveCommonNeighbor(u, v); got != want {
				t.Fatalf("seed %d: HaveCommonNeighbor(%d,%d) = %v, want %v", seed, u, v, got, want)
			}
		}
		// Clone must be deep and equal.
		clone := dense.Clone()
		if !reflect.DeepEqual(clone.Nodes(), dense.Nodes()) || clone.NumEdges() != dense.NumEdges() {
			t.Fatalf("seed %d: clone differs from original", seed)
		}
		if len(edges) > 0 {
			e := edges[0]
			clone.RemoveEdge(e.A, e.B)
			if !dense.HasEdge(e.A, e.B) {
				t.Fatalf("seed %d: mutating clone affected original", seed)
			}
		}
	}
}
