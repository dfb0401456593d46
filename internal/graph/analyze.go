package graph

import "slices"

// BFSScratch holds reusable breadth-first-search working memory. The
// zero value is ready to use; each call resizes the buffers to the
// graph at hand and retains them, so repeated analyses (the engine's
// per-run connectivity check, the experiment layer's diameter checks)
// are allocation-free in steady state. A scratch is owned by one
// goroutine; concurrent analyses need one scratch each.
type BFSScratch struct {
	dist  []int
	queue []ID
}

// bfs runs a breadth-first search from the node src and returns
// distances indexed by ID (-1 for unreachable nodes and for gaps in
// the ID range) plus the number of reached nodes. The returned slice
// aliases sc.dist and is valid until the next call on sc.
func (sc *BFSScratch) bfs(g *Graph, src ID) (dist []int, reached int) {
	n := len(g.state)
	if cap(sc.dist) < n {
		sc.dist = make([]int, n)
	}
	dist = sc.dist[:n]
	for i := range dist {
		dist[i] = -1
	}
	if cap(sc.queue) < g.nodes {
		sc.queue = make([]ID, 0, g.nodes)
	}
	queue := append(sc.queue[:0], src)
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if g.engaged(u) {
			for w, word := range g.row(u).bits {
				base := ID(w << 6)
				for word != 0 {
					v := base + ID(trailingZeros64(word))
					word &= word - 1
					if dist[v] < 0 {
						dist[v] = du + 1
						queue = append(queue, v)
					}
				}
			}
			continue
		}
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	sc.queue = queue
	return dist, len(queue)
}

// firstNode returns the smallest node ID; g must not be empty.
func (g *Graph) firstNode() ID {
	return ID(slices.IndexFunc(g.state, func(s int32) bool { return s != absent }))
}

// IsConnected is Graph.IsConnected using sc's buffers.
func (sc *BFSScratch) IsConnected(g *Graph) bool {
	if g.nodes == 0 {
		return true
	}
	_, reached := sc.bfs(g, g.firstNode())
	return reached == g.nodes
}

// Eccentricity is Graph.Eccentricity using sc's buffers.
func (sc *BFSScratch) Eccentricity(g *Graph, u ID) int {
	if !g.HasNode(u) {
		return -1
	}
	dist, reached := sc.bfs(g, u)
	if reached != g.nodes {
		return -1
	}
	return slices.Max(dist)
}

// ApproxDiameter is Graph.ApproxDiameter using sc's buffers.
func (sc *BFSScratch) ApproxDiameter(g *Graph) int {
	if g.nodes == 0 {
		return 0
	}
	first := g.firstNode()
	dist, reached := sc.bfs(g, first)
	if reached != g.nodes {
		return -1
	}
	// The farthest node from the smallest ID, smallest ID on ties.
	far := first
	for v, d := range dist {
		if d > dist[far] {
			far = ID(v)
		}
	}
	return sc.Eccentricity(g, far)
}

// BFS runs a breadth-first search from src and returns the distance of
// every reachable node. Unreachable nodes are absent from the map.
func (g *Graph) BFS(src ID) map[ID]int {
	out := make(map[ID]int, g.nodes)
	if !g.HasNode(src) {
		return out
	}
	dist, _ := new(BFSScratch).bfs(g, src)
	for v, d := range dist {
		if d >= 0 {
			out[ID(v)] = d
		}
	}
	return out
}

// Dist returns the hop distance between u and v, or -1 if v is
// unreachable from u.
func (g *Graph) Dist(u, v ID) int {
	if u == v && g.HasNode(u) {
		return 0
	}
	d, ok := g.BFS(u)[v]
	if !ok {
		return -1
	}
	return d
}

// IsConnected reports whether g is connected. The empty graph counts as
// connected.
func (g *Graph) IsConnected() bool { return new(BFSScratch).IsConnected(g) }

// Eccentricity returns the greatest distance from u to any node, or -1
// if some node is unreachable.
func (g *Graph) Eccentricity(u ID) int { return new(BFSScratch).Eccentricity(g, u) }

// Diameter returns the exact diameter of g (the maximum eccentricity),
// or -1 if g is disconnected. It runs a BFS from every node, so it is
// O(n·m); use ApproxDiameter for large instances.
func (g *Graph) Diameter() int {
	var sc BFSScratch
	diam := 0
	for _, u := range g.Nodes() {
		ecc := sc.Eccentricity(g, u)
		if ecc < 0 {
			return -1
		}
		diam = max(diam, ecc)
	}
	return diam
}

// ApproxDiameter returns a 2-approximation lower bound on the diameter
// via double BFS (eccentricity of the farthest node from an arbitrary
// start). It returns -1 if g is disconnected. The true diameter lies in
// [result, 2·result].
func (g *Graph) ApproxDiameter() int { return new(BFSScratch).ApproxDiameter(g) }

// SpanningTree returns a BFS spanning tree of g rooted at root, as a
// parent map (the root maps to itself). It returns false if g is
// disconnected or root is absent.
func (g *Graph) SpanningTree(root ID) (map[ID]ID, bool) {
	if !g.HasNode(root) {
		return nil, false
	}
	parent := map[ID]ID{root: root}
	frontier := []ID{root}
	for len(frontier) > 0 {
		var next []ID
		for _, u := range frontier {
			// Deterministic order keeps tree shape reproducible.
			for _, v := range g.Neighbors(u) {
				if _, seen := parent[v]; !seen {
					parent[v] = u
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	if len(parent) != g.nodes {
		return nil, false
	}
	return parent, true
}

// TreeDepth returns the depth of the tree encoded by a parent map (root
// maps to itself): the maximum number of parent hops from any node.
func TreeDepth(parent map[ID]ID) int {
	depth := make(map[ID]int, len(parent))
	var depthOf func(u ID) int
	depthOf = func(u ID) int {
		if d, ok := depth[u]; ok {
			return d
		}
		p := parent[u]
		if p == u {
			depth[u] = 0
			return 0
		}
		d := depthOf(p) + 1
		depth[u] = d
		return d
	}
	maxDepth := 0
	for u := range parent {
		if d := depthOf(u); d > maxDepth {
			maxDepth = d
		}
	}
	return maxDepth
}

// IsTree reports whether g is a tree (connected with exactly n-1 edges).
func (g *Graph) IsTree() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	return g.NumEdges() == n-1 && g.IsConnected()
}

// EulerTour returns an Euler tour of the BFS spanning tree of g rooted
// at root: a closed walk visiting every tree edge exactly twice, as a
// sequence of node IDs of length 2(n-1)+1 that starts and ends at root.
// It returns false if g is disconnected. The tour is the virtual line
// used by the centralized strategy of Theorem 6.3.
func (g *Graph) EulerTour(root ID) ([]ID, bool) {
	parent, ok := g.SpanningTree(root)
	if !ok {
		return nil, false
	}
	children := make(map[ID][]ID, len(parent))
	for u, p := range parent {
		if u != p {
			children[p] = append(children[p], u)
		}
	}
	for _, cs := range children {
		sortIDs(cs)
	}
	// Iterative DFS producing the tour, to stay safe on path graphs
	// (recursion depth would be Θ(n)).
	tour := make([]ID, 0, 2*len(parent))
	type frame struct {
		node ID
		next int
	}
	stack := []frame{{node: root}}
	tour = append(tour, root)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		cs := children[top.node]
		if top.next < len(cs) {
			child := cs[top.next]
			top.next++
			stack = append(stack, frame{node: child})
			tour = append(tour, child)
			continue
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			tour = append(tour, stack[len(stack)-1].node)
		}
	}
	return tour, true
}

func sortIDs(ids []ID) {
	slices.Sort(ids)
}
