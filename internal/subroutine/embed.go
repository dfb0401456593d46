package subroutine

import "adnet/internal/graph"

// EmbeddedConfig builds a single LineToTree node for embedding inside
// a larger protocol — GraphToWreath and GraphToThinWreath run the
// line-to-tree rebuild as a window of their phase, delegating Send and
// Receive to an embedded instance.
type EmbeddedConfig struct {
	Self      graph.ID
	Branching int
	// Parent is the neighbor toward the line root; ignored if IsRoot.
	Parent graph.ID
	IsRoot bool
	// Child is the neighbor away from the root, if any.
	Child    graph.ID
	HasChild bool
	// StartRound is the first absolute engine round of the window; the
	// node acts from that round on.
	StartRound int
	// SizeBound is an upper bound on the line length, fixing the
	// budget (window length) identically at every node.
	SizeBound int
	// KeepEdge, if set, names edges that must never be physically
	// deactivated (the host's ring and original edges); the logical
	// counter discipline proceeds regardless.
	KeepEdge func(peer graph.ID) bool
}

// EmbeddedWindow returns the number of rounds an embedded rebuild
// window needs for the given size bound and branching: the budget of a
// run whose nodes all wake when the window opens.
func EmbeddedWindow(sizeBound, branching int) int { return LineToTreeBudget(sizeBound, branching, 0) }

// NewEmbedded constructs a LineToTree node outside the factory path.
// The caller is responsible for invoking Send and Receive during
// [StartRound, StartRound+EmbeddedWindow) and may read the final tree
// via FinalParent/FinalChildren afterwards. The embedded node never
// halts the hosting machine.
func NewEmbedded(cfg EmbeddedConfig) *LineToTree {
	lt := new(LineToTree)
	lt.ResetEmbedded(cfg)
	return lt
}

// ResetEmbedded re-initialises m in place to the node NewEmbedded(cfg)
// builds, keeping the capacity of its buffers: a host that rebuilds
// every phase holds one LineToTree by value and resets it per window
// instead of allocating a new one.
func (m *LineToTree) ResetEmbedded(cfg EmbeddedConfig) { m.reset(cfg, 0, 0, true) }

// FinalParent returns the node's current tree parent and whether it is
// the root. Meaningful once the rebuild window has ended.
func (m *LineToTree) FinalParent() (graph.ID, bool) { return m.parent, m.isRoot }

// FinalChildren returns the node's current children in attach order: a
// read-only view, valid until the node's next Receive or ResetEmbedded.
func (m *LineToTree) FinalChildren() []graph.ID { return m.children }

// Done reports whether the window budget has passed at the given
// absolute round.
func (m *LineToTree) Done(round int) bool { return round >= m.budget }
