// Package tasks defines the paper's distributed tasks (§2.2) as
// verifiable post-conditions — Leader Election, Depth-d Tree, Token
// Dissemination — plus the structural checks shared by tests and the
// experiment harness.
package tasks

import (
	"fmt"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// SameEdges reports whether two graphs have identical node and edge
// sets.
func SameEdges(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, u := range a.Nodes() {
		if !b.HasNode(u) {
			return false
		}
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.A, e.B) {
			return false
		}
	}
	return true
}

// Election is what a run's nodes declared (§2.2): a node that claims
// to lead, how many claim to, and how many never decided.
type Election struct {
	Leader             graph.ID
	Leaders, Undecided int
}

// Elected counts res's final statuses.
func Elected(res *sim.Result) Election {
	e := Election{Leader: -1}
	for nd := range res.Nodes {
		if nd.Status == sim.StatusLeader {
			e.Leader, e.Leaders = nd.ID, e.Leaders+1
		} else if nd.Status != sim.StatusFollower {
			e.Undecided++
		}
	}
	return e
}

// VerifyElection is the Leader Election rule (§2.2): one leader, every
// other node a follower, and the leader u_max, the maximum UID.
func VerifyElection(e Election, umax graph.ID) error {
	switch {
	case e.Leaders != 1:
		return fmt.Errorf("tasks: %d leaders, want 1", e.Leaders)
	case e.Undecided != 0:
		return fmt.Errorf("tasks: %d nodes never decided a status", e.Undecided)
	case e.Leader != umax:
		return fmt.Errorf("tasks: leader is %d, want u_max = %d", e.Leader, umax)
	}
	return nil
}

// VerifyLeaderElection applies VerifyElection to res's statuses.
func VerifyLeaderElection(res *sim.Result, wantLeader graph.ID) error {
	return VerifyElection(Elected(res), wantLeader)
}

// VerifyTree is the Depth-d Tree rule (§2.2) on a final graph's
// measures: n nodes, m edges and the root's eccentricity depth, -1
// when the root is missing or some node out of its reach.
func VerifyTree(n, m, depth, maxDepth int) error {
	switch {
	case m != n-1:
		return fmt.Errorf("tasks: final graph has %d edges, a spanning tree of %d nodes has %d", m, n, n-1)
	case depth < 0:
		return fmt.Errorf("tasks: final graph is disconnected from the root")
	case depth > maxDepth:
		return fmt.Errorf("tasks: tree depth %d exceeds %d", depth, maxDepth)
	}
	return nil
}

// VerifyDepthTree measures final and applies VerifyTree: final is a
// spanning tree rooted at root with depth at most maxDepth.
func VerifyDepthTree(final *graph.Graph, root graph.ID, maxDepth int) error {
	return VerifyTree(final.NumNodes(), final.NumEdges(), final.Eccentricity(root), maxDepth)
}

// Bound is what a theorem promises an n-node run (§2.2): upper bounds
// on its time and on the three edge-complexity measures, and the depth
// of its Depth-d Tree target, zero where the output is no tree. Each
// registry entry states its own once, next to its machines; the
// verdict reads only Depth.
type Bound struct {
	Rounds, Activations, ActivatedEdges, ActivatedDegree, Depth int
}

// Cost reads a finished run's measures as a Bound to Check: its rounds
// and its three edge-complexity measures, with no depth.
func Cost(met temporal.Metrics) Bound {
	return Bound{Rounds: met.Rounds, Activations: met.TotalActivations,
		ActivatedEdges: met.MaxActivatedEdges, ActivatedDegree: met.MaxActivatedDegree}
}

// Check reports the first of got's measures that exceeds b, naming the
// measure, its value and the bound. got's Depth is held to b's only
// where b has a tree target.
func (b Bound) Check(got Bound) error {
	if b.Depth == 0 {
		got.Depth = 0
	}
	for _, m := range [...]struct {
		name     string
		got, max int
	}{
		{"rounds", got.Rounds, b.Rounds},
		{"total activations", got.Activations, b.Activations},
		{"max activated edges", got.ActivatedEdges, b.ActivatedEdges},
		{"max activated degree", got.ActivatedDegree, b.ActivatedDegree},
		{"tree depth", got.Depth, b.Depth},
	} {
		if m.got > m.max {
			return fmt.Errorf("tasks: %s %d exceeds the bound %d", m.name, m.got, m.max)
		}
	}
	return nil
}

// VerifyTokenDissemination checks that every node's collected token set
// holds the full UID set of the graph; knows reports whether token has
// reached node.
func VerifyTokenDissemination(all []graph.ID, knows func(node, token graph.ID) bool) error {
	for _, u := range all {
		for _, v := range all {
			if !knows(u, v) {
				return fmt.Errorf("tasks: node %d is missing token %d", u, v)
			}
		}
	}
	return nil
}
