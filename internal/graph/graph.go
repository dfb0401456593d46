// Package graph provides the static undirected graphs that actively
// dynamic networks start from: a deterministic adjacency structure,
// standard analyses (BFS, diameter, spanning trees, Euler tours) and a
// family of generators used by the paper's workloads (lines, rings,
// increasing-order rings, trees, bounded-degree random graphs, ...).
//
// Node identity doubles as the paper's unique identifier (UID): the
// algorithms in internal/core are comparison based, so a node's ID is
// the only thing they ever compare.
//
// Representation (DESIGN.md § "Graph (internal/graph)"): the ID is
// the only address. Two
// tables indexed by ID cover 0..MaxID — adj, and state, whose value
// says which of three states an ID is in: not a node (a gap in the
// range), a node with a sorted []ID neighbor slice, or a node with an
// ID-indexed neighbor bitset, held as a row of the short dense list
// that only bitset-backed nodes have. HasNode is a bounds check
// and a compare, Nodes an ascending scan; nothing is hashed and nothing
// is interned. A node starts slice-backed; once its degree crosses
// max(bitsetMinDeg, words(maxID+1)) — the point where a bitset is both
// faster and no larger than the slice — it is promoted, making HasEdge,
// AddEdge and RemoveEdge O(1) and HaveCommonNeighbor a word-wise AND.
// This is what keeps the dense star phases of internal/core
// subquadratic at n = 10^6: the star center's adjacency would otherwise
// pay an O(deg) memmove per edge flip. Nodes demote back to slices
// (with hysteresis) as they thin out, and both representations iterate
// neighbors in ascending ID order, so the public semantics are those of
// the original map-based implementation (see TestDenseMatchesMapModel
// and the randomized differential tests in bitset_test.go). Nodes are
// never removed, so MaxID is the top of the tables and NumEdges is O(1).
//
// The contract that buys this: storage is O(MaxID), 28 bytes per ID in
// range, not O(n) — the one the ID-indexed bitsets always had. Every
// generator here and every workload above produces IDs 0..n-1
// (PermuteIDs places them), and because the algorithms only compare
// UIDs, an instance with sparse UIDs behaves exactly like its rank
// relabelling; sparse IDs work, they just cost their range. The dense
// 0..n-1 rank of a node ("slot") that engine arrays and the wire format
// need is not known here: temporal.History builds it once per run.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// ID identifies a node and serves as its UID. IDs must be non-negative
// and unique within a graph, and should be dense: storage is O(MaxID).
// It is 32 bits wide: IDs fill adjacency rows, edges, intents, messages
// and machine fields, so the width is paid per node many times over.
type ID int32

// MaxNodes is the most nodes a graph on IDs 0..n-1 can hold: every
// non-negative ID. Sizes from outside the program are checked against
// it where they enter (expt.SweepSpec.Validate, expt.WorkloadInto).
const MaxNodes = math.MaxInt32 + 1

// Edge is an undirected pair of node IDs, stored in canonical order
// (A < B) so it can be used as a map key.
type Edge struct {
	A, B ID
}

// NewEdge returns the canonical form of the undirected edge {u, v}.
func NewEdge(u, v ID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{A: u, B: v}
}

// Other returns the endpoint of e that is not u. It panics if u is not
// an endpoint, which always indicates a programming error.
func (e Edge) Other(u ID) ID {
	switch u {
	case e.A:
		return e.B
	case e.B:
		return e.A
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", u, e))
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.A, e.B) }

// Graph is a simple undirected graph. The zero value is not usable;
// call New.
type Graph struct {
	adj   [][]ID  // ID → neighbor IDs, sorted ascending (slice-backed nodes)
	state []int32 // ID → sliceBacked, absent, or the index of its row in dense
	// dense holds one row per bitset-backed node, in no order; past its
	// length are retired rows, whose bitsets the next promotion reuses.
	dense []denseRow
	nodes int // node count; the two tables cover IDs 0..MaxID, gaps included
	edges int // undirected edge count, maintained incrementally

	// minDeg overrides bitsetMinDeg when positive. It exists for tests
	// that need the bitset representation to engage on tiny graphs; it
	// survives Reset (configuration, not content) and is propagated by
	// Clone and CopyCanonicalFrom.
	minDeg int
}

// denseRow is a bitset-backed node's adjacency.
type denseRow struct {
	bits []uint64 // neighbor bitset indexed by ID
	deg  int
	id   ID // the node: a demotion moves the last row into its place and re-points its node
}

// The two negative states of state[u]; any value >= 0 is the index of
// a bitset-backed node's row in dense.
const (
	sliceBacked = -1 // u is a node whose neighbors are in adj[u]
	absent      = -2 // u is not a node (a gap in the ID range)
)

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// engaged reports whether node u is bitset-backed.
func (g *Graph) engaged(u ID) bool { return g.state[u] >= 0 }

// row returns bitset-backed node u's row.
func (g *Graph) row(u ID) *denseRow { return &g.dense[g.state[u]] }

// AddNode inserts an isolated node. Adding an existing node is a no-op;
// a negative ID is a programming error and panics.
func (g *Graph) AddNode(u ID) {
	if u < 0 {
		panic(fmt.Sprintf("graph: negative node ID %d", u))
	}
	if g.HasNode(u) {
		return
	}
	if old, n := len(g.state), int(u)+1; n > old {
		g.adj, g.state = extend(g.adj, n), extend(g.state, n)
		// IDs old..u come into range with u. Each reclaims the array it
		// held before Reset, emptied, and is absent until added.
		for i := old; i < n; i++ {
			g.adj[i], g.state[i] = g.adj[i][:0], absent
		}
	}
	g.state[u] = sliceBacked
	g.nodes++
}

// extend returns s with length n, keeping what its backing array holds
// beyond len(s) and zero-filling any growth past its capacity.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s[:cap(s)], n-cap(s))
	}
	return s[:n]
}

// Reset clears g to the empty graph while retaining allocated
// capacity: the two ID-indexed tables, every per-node adjacency slice
// and every bitset row keep their backing arrays, so the next build
// into the same receiver allocates only on growth. Together with the
// *Into generator variants this makes repeated workload generation
// allocation-light in steady state. Like any mutation, Reset
// invalidates NeighborsView results.
func (g *Graph) Reset() {
	g.adj = g.adj[:0]
	g.state = g.state[:0]
	g.dense = g.dense[:0]
	g.nodes, g.edges = 0, 0
}

// HasNode reports whether u is a node of g: in range and not a gap.
func (g *Graph) HasNode(u ID) bool {
	return uint(u) < uint(len(g.state)) && g.state[u] != absent
}

// AddEdge inserts the undirected edge {u, v}, adding the endpoints if
// necessary. Self-loops are rejected with an error because the model
// has no use for them, negative endpoints because they are not IDs;
// duplicate edges are a no-op.
func (g *Graph) AddEdge(u, v ID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node ID %d", min(u, v))
	}
	g.AddNode(u)
	g.AddNode(v)
	if g.insertNeighbor(u, v) {
		g.insertNeighbor(v, u)
		g.edges++
		g.maybePromote(u)
		g.maybePromote(v)
	}
	return nil
}

// insertNeighbor adds v to node u's neighbor set, reporting whether it
// was not already present.
func (g *Graph) insertNeighbor(u, v ID) bool {
	if g.engaged(u) {
		r := g.row(u)
		if bitsetHas(r.bits, v) {
			return false
		}
		r.bits = bitsetSet(r.bits, v)
		r.deg++
		return true
	}
	var inserted bool
	g.adj[u], inserted = insertSorted(g.adj[u], v)
	return inserted
}

// removeNeighbor deletes v from node u's neighbor set, reporting
// whether it was present.
func (g *Graph) removeNeighbor(u, v ID) bool {
	if g.engaged(u) {
		r := g.row(u)
		if !bitsetHas(r.bits, v) {
			return false
		}
		bitsetUnset(r.bits, v)
		r.deg--
		return true
	}
	var removed bool
	g.adj[u], removed = removeSorted(g.adj[u], v)
	return removed
}

// promoteThreshold is the degree at which a slice-backed node switches
// to a bitset. The words(maxID+1) term doubles as a density gate: a
// bitset over sparse IDs would be mostly zero words, and it also keeps
// bitset memory at or below the memory of the slice it replaces.
func (g *Graph) promoteThreshold() int {
	t := bitsetMinDeg
	if g.minDeg > 0 {
		t = g.minDeg
	}
	return max(t, bitsetWords(g.MaxID()))
}

func (g *Graph) maybePromote(u ID) {
	if !g.engaged(u) && len(g.adj[u]) >= g.promoteThreshold() {
		g.promote(u)
	}
}

// promote rebuilds node u's adjacency as a bitset in a new last row of
// dense, reusing a retired row's words. The sorted slice's backing
// array is retained (truncated to zero length) so a later demotion
// reuses it.
func (g *Graph) promote(u ID) {
	w := bitsetWords(g.MaxID())
	i := len(g.dense)
	g.dense = extend(g.dense, i+1)
	b := g.dense[i].bits
	if cap(b) < w {
		b = make([]uint64, w)
	} else {
		b = b[:w]
		clear(b)
	}
	for _, v := range g.adj[u] {
		b[int(v>>6)] |= 1 << (uint(v) & 63)
	}
	g.dense[i] = denseRow{bits: b, deg: len(g.adj[u]), id: u}
	g.state[u] = int32(i)
	g.adj[u] = g.adj[u][:0]
}

// maybeDemote demotes node u back to a sorted slice once its degree
// falls below half the promotion threshold. The factor-of-two
// hysteresis keeps a node oscillating around the threshold from
// rebuilding its representation every round.
func (g *Graph) maybeDemote(u ID) {
	if g.engaged(u) && g.row(u).deg*2 < g.promoteThreshold() {
		g.demote(u)
	}
}

// demote rebuilds node u's adjacency as a sorted slice from its
// bitset. Bitset iteration ascends by ID, so the slice comes out
// sorted for free. The last row takes u's place in dense, and u's row
// is retired past its end, its words kept for a later promotion.
func (g *Graph) demote(u ID) {
	i := g.state[u]
	g.adj[u] = appendBitset(g.adj[u][:0], g.dense[i].bits)
	g.state[u] = sliceBacked
	last := len(g.dense) - 1
	if int(i) != last {
		g.dense[i], g.dense[last] = g.dense[last], g.dense[i]
		g.state[g.dense[i].id] = i
	}
	g.dense = g.dense[:last]
}

// MustAddEdge is AddEdge for construction code where a self-loop or a
// negative endpoint is a programming error.
func (g *Graph) MustAddEdge(u, v ID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether it existed.
func (g *Graph) RemoveEdge(u, v ID) bool {
	if !g.HasNode(u) || !g.HasNode(v) || !g.removeNeighbor(u, v) {
		return false
	}
	g.removeNeighbor(v, u)
	g.edges--
	g.maybeDemote(u)
	g.maybeDemote(v)
	return true
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v ID) bool {
	if !g.HasNode(u) || !g.HasNode(v) {
		return false
	}
	// A bitset endpoint answers in O(1).
	if g.engaged(u) {
		return bitsetHas(g.row(u).bits, v)
	}
	if g.engaged(v) {
		return bitsetHas(g.row(v).bits, u)
	}
	// Both slices: search the lower-degree endpoint.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	return containsSorted(g.adj[u], v)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes }

// NumEdges returns the number of undirected edges in O(1).
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []ID { return g.AppendNodes(make([]ID, 0, g.nodes)) }

// AppendNodes appends all node IDs in ascending order to dst[:0] and
// returns it, reusing dst's backing array when it has capacity.
func (g *Graph) AppendNodes(dst []ID) []ID {
	dst = dst[:0]
	for u, s := range g.state {
		if s != absent {
			dst = append(dst, ID(u))
		}
	}
	return dst
}

// Neighbors returns the neighbors of u in ascending order. The result
// is a fresh slice owned by the caller; use NeighborsInto or
// EachNeighbor on hot paths.
func (g *Graph) Neighbors(u ID) []ID {
	return g.NeighborsInto(u, make([]ID, 0, g.Degree(u)))
}

// NeighborsInto appends the neighbors of u, ascending, to dst[:0] and
// returns it, reusing dst's backing array when it is large enough. The
// result aliases dst, not the graph's internal storage.
func (g *Graph) NeighborsInto(u ID, dst []ID) []ID {
	dst = dst[:0]
	if !g.HasNode(u) {
		return dst
	}
	if g.engaged(u) {
		return appendBitset(dst, g.row(u).bits)
	}
	return append(dst, g.adj[u]...)
}

// EachNeighbor calls fn for every neighbor of u in ascending order,
// stopping early if fn returns false. It performs no allocation. The
// graph must not be mutated during the iteration.
func (g *Graph) EachNeighbor(u ID, fn func(v ID) bool) {
	if !g.HasNode(u) {
		return
	}
	if g.engaged(u) {
		for w, word := range g.row(u).bits {
			base := ID(w << 6)
			for word != 0 {
				v := base + ID(trailingZeros64(word))
				if !fn(v) {
					return
				}
				word &= word - 1
			}
		}
		return
	}
	for _, v := range g.adj[u] {
		if !fn(v) {
			return
		}
	}
}

// HaveCommonNeighbor reports whether u and v share at least one common
// neighbor. It is the allocation-free primitive behind the model's
// distance-2 rule: a word-wise AND when both endpoints are
// bitset-backed, a membership probe of the bitset when one is, and a
// merge walk of the two sorted lists when neither is.
func (g *Graph) HaveCommonNeighbor(u, v ID) bool {
	if !g.HasNode(u) || !g.HasNode(v) {
		return false
	}
	eu, ev := g.engaged(u), g.engaged(v)
	switch {
	case eu && ev:
		return bitsetIntersects(g.row(u).bits, g.row(v).bits)
	case eu:
		return sliceMeetsBitset(g.adj[v], g.row(u).bits)
	case ev:
		return sliceMeetsBitset(g.adj[u], g.row(v).bits)
	}
	a, b := g.adj[u], g.adj[v]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// sliceMeetsBitset reports whether any ID of the sorted slice s has
// its bit set in b.
func sliceMeetsBitset(s []ID, b []uint64) bool {
	for _, v := range s {
		if bitsetHas(b, v) {
			return true
		}
	}
	return false
}

// Degree returns the degree of u (0 when u is not a node).
func (g *Graph) Degree(u ID) int {
	if !g.HasNode(u) {
		return 0
	}
	if g.engaged(u) {
		return g.row(u).deg
	}
	return len(g.adj[u])
}

// MaxDegree returns the maximum degree over all nodes (0 for the empty
// graph).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for u := range g.state {
		maxDeg = max(maxDeg, g.Degree(ID(u)))
	}
	return maxDeg
}

// Edges returns all edges in canonical form, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for i := range g.state {
		u := ID(i)
		g.EachNeighbor(u, func(v ID) bool {
			if u < v {
				out = append(out, Edge{A: u, B: v})
			}
			return true
		})
	}
	return out
}

// Clone returns a deep copy of g, including each node's current
// representation.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:    make([][]ID, len(g.adj)),
		state:  slices.Clone(g.state),
		dense:  make([]denseRow, len(g.dense)),
		nodes:  g.nodes,
		edges:  g.edges,
		minDeg: g.minDeg,
	}
	for u, nbrs := range g.adj {
		if len(nbrs) > 0 {
			c.adj[u] = slices.Clone(nbrs)
		}
	}
	for i, r := range g.dense {
		c.dense[i] = denseRow{bits: slices.Clone(r.bits), deg: r.deg, id: r.id}
	}
	return c
}

// MaxID returns the largest node ID in g, or -1 for an empty graph.
// In the paper's terms this is u_max, the eventual unique leader.
// Nodes are never removed, so it is the top of the ID-indexed tables.
func (g *Graph) MaxID() ID { return ID(len(g.state) - 1) }

// NeighborsView returns u's neighbors in ascending order, zero-copy
// when u is slice-backed: callers must not modify the result, and any
// mutation of g invalidates it. For bitset-backed nodes a fresh slice
// is materialized, so hot paths should prefer EachNeighbor or
// NeighborsInto; the engine only calls NeighborsView on initial
// snapshots, which CopyCanonicalFrom always leaves slice-backed.
// Unknown nodes yield nil.
func (g *Graph) NeighborsView(u ID) []ID {
	if !g.HasNode(u) {
		return nil
	}
	if g.engaged(u) {
		return g.Neighbors(u)
	}
	return g.adj[u]
}

// CopyCanonicalFrom makes g a deep copy of src in canonical
// representation: the same nodes and edges with every node
// slice-backed, whatever src's representations (mutation re-promotes
// dense nodes on the first edge flip past the threshold; keeping copies
// slice-backed is what guarantees NeighborsView on initial snapshots
// stays zero-copy). Existing backing arrays (the tables, adjacency
// lists, bitsets) are reused, so repeated copies into the same
// receiver do not allocate in steady state.
func (g *Graph) CopyCanonicalFrom(src *Graph) {
	n := len(src.state)
	g.adj, g.state = extend(g.adj, n), extend(g.state, n)
	g.dense = g.dense[:0]
	for u, s := range src.state {
		if s >= 0 {
			g.adj[u] = appendBitset(g.adj[u][:0], src.dense[s].bits)
			s = sliceBacked
		} else {
			g.adj[u] = append(g.adj[u][:0], src.adj[u]...)
		}
		g.state[u] = s
	}
	g.nodes, g.edges, g.minDeg = src.nodes, src.edges, src.minDeg
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.NumNodes(), g.NumEdges())
}

// insertSorted inserts v into the ascending slice s, reporting whether
// it was not already present.
func insertSorted(s []ID, v ID) ([]ID, bool) {
	i := searchID(s, v)
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// removeSorted deletes v from the ascending slice s, reporting whether
// it was present.
func removeSorted(s []ID, v ID) ([]ID, bool) {
	i := searchID(s, v)
	if i >= len(s) || s[i] != v {
		return s, false
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1], true
}

// containsSorted reports whether v occurs in the ascending slice s.
func containsSorted(s []ID, v ID) bool {
	i := searchID(s, v)
	return i < len(s) && s[i] == v
}

// searchID returns the smallest index i with s[i] >= v (binary search).
func searchID(s []ID, v ID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
