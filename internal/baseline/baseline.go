// Package baseline implements the comparison points the paper
// positions its algorithms against:
//
//   - the trivial clique-formation strategy of §1.2 (time optimal,
//     edge-complexity maximal);
//   - pure flooding over the static network (zero activations,
//     Θ(diameter) time — the "don't reconfigure" end of the tradeoff);
//   - the centralized strategies of §6/Appendix D: CutInHalf on a
//     spanning line and the Euler-tour construction of Theorem 6.3,
//     which achieve Θ(n) total activations — the separation the
//     distributed Ω(n log n) lower bound (Theorem 6.4) is measured
//     against.
//
// The centralized strategies manipulate the temporal graph directly
// through temporal.History, so they obey exactly the same model rules
// (distance-2 activation, per-round accounting) as the distributed
// algorithms.
package baseline

import (
	"fmt"
	"math/bits"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
	"adnet/internal/temporal"
)

// tokens is the one message both machines send: a pointer to an ID
// set the sender owns. The sender writes the set in its Send and
// nowhere else, so it is stable for the whole deliver/Receive phase in
// which neighbors — stepped concurrently — read it, and what a
// machine's Receive mutates is a different set. Conveying the whole
// set costs the engine nothing this way and a receiver one pass over
// ⌈MaxID/64⌉ words per message; nothing outside a machine reads it.
type tokens struct{ set graph.IDSet }

// CliqueMachine is the §1.2 strategy: every round, every node activates
// edges to all of its potential neighbors (distance-2 nodes). A
// spanning clique forms in ⌈log n⌉ rounds at a Θ(n²) edge cost. After
// the clique forms, the maximum UID declares itself leader and all
// nodes halt — one additional round, as the paper notes.
type CliqueMachine struct {
	known graph.IDSet // self and every node ever seen as a neighbor or in a message
	pub   tokens      // this round's message: N1 as of Send
}

var (
	_ sim.Recycler = (*CliqueMachine)(nil)
	_ sim.Recycler = (*FloodMachine)(nil)
)

// NewCliqueFactory returns the clique-formation factory.
func NewCliqueFactory() sim.Factory {
	return func(id graph.ID, env sim.Env) sim.Machine {
		m := new(CliqueMachine)
		m.Recycle(id, env)
		return m
	}
}

// CliqueBound is what §1.2 promises clique formation on n nodes: about
// log₂ n doubling rounds, the election round and slack, and no edge of
// K_n activated twice.
func CliqueBound(n int) tasks.Bound {
	kn := n * (n - 1) / 2
	return tasks.Bound{Rounds: bits.Len(uint(n)) + 3, Activations: kn, ActivatedEdges: kn, ActivatedDegree: n - 1}
}

// Recycle implements sim.Recycler: the node knows itself and nothing
// else, and both sets keep their words. The factory builds its
// machines through it, so a rebooted node and a recycled one start in
// the same state.
func (m *CliqueMachine) Recycle(id graph.ID, _ sim.Env) {
	m.known.Reset()
	m.known.Add(id)
	m.pub.set.Reset()
}

// Init implements sim.Machine.
func (m *CliqueMachine) Init(*sim.Context) {}

// Send implements sim.Machine.
func (m *CliqueMachine) Send(ctx *sim.Context) {
	m.pub.set.Reset()
	ctx.EachNeighbor(func(v graph.ID) bool {
		m.pub.set.Add(v)
		return true
	})
	ctx.Broadcast(&m.pub)
}

// Receive implements sim.Machine. Every ID a message brings that the
// node has not seen is a potential neighbor: it is activated, in
// sender order and ascending within a message.
func (m *CliqueMachine) Receive(ctx *sim.Context, inbox []sim.Message) {
	ctx.EachNeighbor(func(v graph.ID) bool {
		m.known.Add(v)
		return true
	})
	grew := false
	for i := range inbox {
		if m.known.Merge(inbox[i].Payload.(*tokens).set, ctx.Activate) > 0 {
			grew = true
		}
	}
	if !grew && ctx.Degree() == ctx.N()-1 {
		// Clique complete: elect max UID, one extra round of logic.
		elect(ctx, m.known)
	}
}

// elect declares the node leader if it holds the largest UID it knows
// of, follower otherwise, and halts it.
func elect(ctx *sim.Context, known graph.IDSet) {
	if known.Max() == ctx.ID() {
		ctx.SetStatus(sim.StatusLeader)
	} else {
		ctx.SetStatus(sim.StatusFollower)
	}
	ctx.Halt()
}

// FloodMachine floods all known UIDs over the static network without
// activating any edge: Θ(diameter) rounds, zero edge complexity. It
// demonstrates the other end of the tradeoff: without reconfiguration,
// linear time on a line.
//
// Every round a node offers its whole token set, not what it learned
// last round: under an environment a message is lost with its edge, a
// crashed neighbor drops its inbox, a new edge joins two nodes that
// never exchanged what they already knew — re-offering everything is
// what makes flooding heal from all three.
type FloodMachine struct {
	known   graph.IDSet // tokens gathered so far
	count   int         // members of known, counted as Receive merges them in
	lastNew int         // last round a new token arrived
	pub     tokens      // this round's message: known as of Send
}

// NewFloodFactory returns the flooding factory. Nodes halt after the
// token set has been stable for two rounds and they have seen n tokens.
func NewFloodFactory() sim.Factory {
	return func(id graph.ID, env sim.Env) sim.Machine {
		m := new(FloodMachine)
		m.Recycle(id, env)
		return m
	}
}

// FloodBound is what §1.2 promises flooding on n nodes: no activation,
// and every token across a diameter below n, then two quiet rounds.
func FloodBound(n int) tasks.Bound { return tasks.Bound{Rounds: n + 1} }

// Recycle implements sim.Recycler; see CliqueMachine.Recycle.
func (m *FloodMachine) Recycle(id graph.ID, _ sim.Env) {
	m.known.Reset()
	m.known.Add(id)
	m.count, m.lastNew = 1, 0
	m.pub.set.Reset()
}

// Knows reports whether token v has reached the node.
func (m *FloodMachine) Knows(v graph.ID) bool { return m.known.Has(v) }

// NumKnown returns the number of tokens gathered so far.
func (m *FloodMachine) NumKnown() int { return m.count }

// Init implements sim.Machine.
func (m *FloodMachine) Init(*sim.Context) {}

// Send implements sim.Machine.
func (m *FloodMachine) Send(ctx *sim.Context) {
	m.pub.set.CopyFrom(m.known)
	ctx.Broadcast(&m.pub)
}

// Receive implements sim.Machine.
func (m *FloodMachine) Receive(ctx *sim.Context, inbox []sim.Message) {
	for i := range inbox {
		if added := m.known.Merge(inbox[i].Payload.(*tokens).set, nil); added > 0 {
			m.count += added
			m.lastNew = ctx.Round()
		}
	}
	// Halt only after the token set has been quiet for two rounds: a
	// node that still receives new tokens is still on some other
	// node's dissemination path and must keep relaying.
	if m.count == ctx.N() && ctx.Round() >= m.lastNew+2 {
		elect(ctx, m.known)
	}
}

// CentralizedResult reports a centralized strategy's outcome.
type CentralizedResult struct {
	History *temporal.History
	Metrics temporal.Metrics
	Root    graph.ID
	// MaxRoundActivations is max_i |Eac(i)|, from what Apply returned.
	MaxRoundActivations int
}

// CutInHalfLine is the Appendix D strategy on a spanning line
// u_0 … u_{n-1}: in phase i it activates the edges u_j u_{j+2^i} for
// j ≡ 0 (mod 2^i), giving Θ(n) total activations (Σ n/2^i) and ⌈log n⌉
// rounds. The final graph contains a depth-⌈log n⌉ tree rooted at one
// endpoint; non-tree edges are deactivated in one final round.
func CutInHalfLine(n int) (*CentralizedResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: n=%d", n)
	}
	line := graph.Line(n)
	order := make([]graph.ID, n)
	for i := range order {
		order[i] = graph.ID(i)
	}
	return cutInHalf(line, order, graph.ID(0))
}

// CutInHalfBound is what Appendix D promises CutInHalfLine on n nodes:
// about log₂ n doubling rounds and a prune, Θ(n) activations (Σ n/2^i),
// and a tree rooted at an end of the line of depth at most bits.Len(n)+1.
func CutInHalfBound(n int) tasks.Bound {
	l := bits.Len(uint(n))
	return tasks.Bound{Rounds: l + 2, Activations: 2 * n, ActivatedEdges: 2 * n, ActivatedDegree: n - 1, Depth: l + 1}
}

// EulerTourBound is what Theorem 6.3 promises EulerTourStrategy on n
// nodes: CutInHalf's on the tour, a virtual line of fewer than 2n
// positions, and one more level of depth.
func EulerTourBound(n int) tasks.Bound {
	b := CutInHalfBound(2 * n)
	b.Depth++
	return b
}

// EulerTourStrategy is Theorem 6.3 / D.5: for any connected graph,
// compute a spanning tree and its Euler tour (a virtual line of length
// ≤ 2n-1 over physical nodes), then run CutInHalf along the tour.
// Consecutive tour positions are tree-adjacent, so every shortcut obeys
// the distance-2 rule; duplicate pairs are no-ops. Total activations
// stay Θ(n) and the construction takes O(log n) rounds.
func EulerTourStrategy(gs *graph.Graph) (*CentralizedResult, error) {
	root := gs.MaxID()
	tour, ok := gs.EulerTour(root)
	if !ok {
		return nil, fmt.Errorf("baseline: graph disconnected")
	}
	return cutInHalf(gs, tour, root)
}

// cutInHalf runs the doubling shortcuts over a node sequence whose
// consecutive elements are adjacent in gs, then prunes to a BFS tree
// from root.
func cutInHalf(gs *graph.Graph, seq []graph.ID, root graph.ID) (*CentralizedResult, error) {
	h := temporal.NewHistory(gs)
	m, maxActs := len(seq), 0
	for step := 1; step < m; step *= 2 {
		var acts []graph.Edge
		for j := 0; j+step < m; j += step {
			a, b := seq[j], seq[j+step]
			if a != b && !h.Active(a, b) {
				acts = append(acts, graph.NewEdge(a, b))
			}
		}
		if len(acts) == 0 {
			continue
		}
		st, err := h.Apply(acts, nil)
		if err != nil {
			return nil, fmt.Errorf("baseline: cut-in-half round: %w", err)
		}
		maxActs = max(maxActs, st.Activated)
	}
	// One final round: keep only a BFS tree from the root (edge
	// deactivations are free of activation cost).
	cur := h.CurrentClone()
	parent, ok := cur.SpanningTree(root)
	if !ok {
		return nil, fmt.Errorf("baseline: shortcut graph disconnected")
	}
	var deacts []graph.Edge
	for _, e := range cur.Edges() {
		if parent[e.A] != e.B && parent[e.B] != e.A {
			deacts = append(deacts, e)
		}
	}
	if len(deacts) > 0 {
		if _, err := h.Apply(nil, deacts); err != nil {
			return nil, fmt.Errorf("baseline: prune round: %w", err)
		}
	}
	return &CentralizedResult{History: h, Metrics: h.Metrics(), Root: root, MaxRoundActivations: maxActs}, nil
}
