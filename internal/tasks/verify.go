// Package tasks defines the paper's distributed tasks (§2.2) as
// verifiable post-conditions — Leader Election, Depth-d Tree, Token
// Dissemination — plus the structural checks shared by tests and the
// experiment harness.
package tasks

import (
	"fmt"

	"adnet/internal/graph"
	"adnet/internal/sim"
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

// VerifyLeaderElection checks the §2.2 definition: exactly one node has
// status Leader, all others Follower, and — for the paper's comparison
// based algorithms — the leader is u_max, the maximum UID.
func VerifyLeaderElection(res *sim.Result, wantLeader graph.ID) error {
	leaders, followers, undecided := 0, 0, 0
	var got graph.ID = -1
	for nd := range res.Nodes {
		switch nd.Status {
		case sim.StatusLeader:
			leaders++
			got = nd.ID
		case sim.StatusFollower:
			followers++
		default:
			undecided++
		}
	}
	if leaders != 1 {
		return fmt.Errorf("tasks: %d leaders, want 1", leaders)
	}
	if undecided != 0 {
		return fmt.Errorf("tasks: %d nodes never decided a status", undecided)
	}
	if got != wantLeader {
		return fmt.Errorf("tasks: leader is %d, want u_max = %d", got, wantLeader)
	}
	return nil
}

// VerifyDepthTree checks the Depth-d Tree target (§2.2): the final
// active graph is a spanning tree rooted at root with depth at most
// maxDepth.
func VerifyDepthTree(final *graph.Graph, root graph.ID, maxDepth int) error {
	if !final.IsTree() {
		return fmt.Errorf("tasks: final graph is not a tree (n=%d, m=%d, connected=%v)",
			final.NumNodes(), final.NumEdges(), final.IsConnected())
	}
	if !final.HasNode(root) {
		return fmt.Errorf("tasks: root %d missing", root)
	}
	depth := final.Eccentricity(root)
	if depth < 0 {
		return fmt.Errorf("tasks: root cannot reach all nodes")
	}
	if depth > maxDepth {
		return fmt.Errorf("tasks: tree depth %d exceeds %d", depth, maxDepth)
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
