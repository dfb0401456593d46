package subroutine

import (
	"fmt"
	"math/bits"
	"slices"

	"adnet/internal/graph"
	"adnet/internal/sim"
)

// treeMsg is the per-round state broadcast of LineToTree nodes. All
// fields describe the sender at the beginning of the round; the
// Parent*/Old* fields forward the sender's latest knowledge about its
// own (old) parent, which is what lets a node reason about its
// grandparent without being adjacent to it.
//
// It travels as a pointer to the sender's scratch (LineToTree.out),
// under DESIGN.md § "Payload-scratch contract": written in Send
// only, so a receiver may read it — Children included — for the whole
// of its Receive and must copy what it needs afterwards.
type treeMsg struct {
	EA, DEA   int
	HasParent bool
	Parent    graph.ID
	Children  []graph.ID // attach order; index 0 is the firstborn

	ParentCC     int // grandparent child count (in-flight corrected); -1 unknown
	AmFirstChild bool
	ParentAwake  bool

	HasOld        bool
	OldParent     graph.ID
	OldParentCC   int // -1 unknown
	OldParentWake bool
	// LadderPending is true while the sender still expects one of its
	// children to climb through its retained old-parent edge; the old
	// parent must not release its own ladder before that climb lands.
	LadderPending bool
}

// LineToTree is the §2.3 / Appendix B subroutine family: it transforms
// an oriented line (every node knows its parent, the neighbor closer
// to the root) into a complete b-ary tree rooted at the line's
// endpoint.
//
//   - b == 2 is LineToCompleteBinaryTree (Proposition 2.2).
//   - b == ⌈log2 n⌉ is LineToCompletePolylogarithmicTree (§5).
//
// The machine follows the Appendix B discipline: odd rounds activate,
// even rounds deactivate, and per-node counters EA (edges activated)
// and DEA (edges deactivated) gate every action. A node u with parent
// v climbs by one of three moves, all with witness path u–v–target:
//
//   - aligned (EA_v == EA_u): hop to v's current parent — the
//     synchronous doubling step;
//   - ladder (EA_v == EA_u + 1): hop to v's old, not-yet-deactivated
//     parent. This is why the model retains the previous parent edge:
//     it is the ladder a lagging child climbs through (the condition
//     EA_x = DEA_u + 1 in the paper's deactivation rule is precisely
//     "my child has used the ladder");
//   - catch-up (EA_v < EA_u): hop past a permanently stopped parent
//     (e.g. a child of the root) to its current parent.
//
// Every move additionally requires the node to be its parent's
// firstborn, the target's child count (forwarded, corrected by
// departures in flight) to be below b, and the node's own ladder to be
// clean (DEA_u == EA_u). The handshake keeps |EA_u − EA_v| ≤ 1, so the
// three cases are exhaustive.
//
// The synchronous subroutine is the special case in which every node
// wakes at round 0; arbitrary wake rounds give the asynchronous
// variant, whose final edge set must equal the synchronous one
// (Lemma B.4) — enforced by property tests.
type LineToTree struct {
	wake      int
	budget    int
	stage1End int // last round of the binary build; compression follows
	adoptK    int // number of adopt-grandchildren compression rounds
	selfID    graph.ID
	embedded  bool                     // hosted by a larger machine: never halt the node
	keep      func(peer graph.ID) bool // edges exempt from physical deactivation

	isRoot    bool
	parent    graph.ID
	oldParent graph.ID
	hasOld    bool
	ea, dea   int

	children []graph.ID // attach order
	childEA  []int      // parallel to children: each child's last broadcast EA

	// inflight records departed children with the parent they claimed,
	// until that parent's broadcast child list includes them. It makes
	// the forwarded child counts immune to the one-round lag between
	// an arrival's hop and the target learning of it.
	inflight []departure

	// What the last Receive heard from the parent and the old parent as
	// they stood when it returned, folded into the words the next Send
	// forwards. The senders rewrite their scratch in that same Send
	// phase, so nothing of theirs may be read by then.
	parentAwake, amFirstChild, oldParentWake bool
	parentCC, oldParentCC                    int // -1 unknown

	out treeMsg // outgoing scratch, written in Send only
}

// departure is one inflight entry: child left us claiming target.
type departure struct{ target, child graph.ID }

var _ sim.Machine = (*LineToTree)(nil)

// LineToTreeOptions configures NewLineToTreeFactory.
type LineToTreeOptions struct {
	// Branching is the target arity b (>= 2).
	Branching int
	// Parents orients the initial line: each node maps to its
	// neighbor on the root side; the root maps to itself.
	Parents map[graph.ID]graph.ID
	// Wake optionally delays nodes (asynchronous variant). Nil or
	// missing entries mean round 0.
	Wake map[graph.ID]int
}

// NewLineToTreeFactory validates the options and returns the factory.
func NewLineToTreeFactory(opts LineToTreeOptions) (sim.Factory, error) {
	if opts.Branching < 2 {
		return nil, fmt.Errorf("subroutine: branching %d < 2", opts.Branching)
	}
	if len(opts.Parents) == 0 {
		return nil, fmt.Errorf("subroutine: empty parent map")
	}
	roots := 0
	for u, p := range opts.Parents {
		if u == p {
			roots++
		}
	}
	if roots != 1 {
		return nil, fmt.Errorf("subroutine: parent map has %d roots, want 1", roots)
	}
	skew := 0
	for _, w := range opts.Wake {
		skew = max(skew, w)
	}
	// Initial children: invert the parent map, giving each node its
	// unique line child (the neighbor away from the root).
	childOf := make(map[graph.ID]graph.ID, len(opts.Parents))
	for u, p := range opts.Parents {
		if u != p {
			childOf[p] = u
		}
	}
	return func(id graph.ID, _ sim.Env) sim.Machine {
		cfg := EmbeddedConfig{
			Self:       id,
			Branching:  opts.Branching,
			Parent:     opts.Parents[id],
			IsRoot:     opts.Parents[id] == id,
			StartRound: 1,
			SizeBound:  len(opts.Parents),
		}
		cfg.Child, cfg.HasChild = childOf[id]
		lt := new(LineToTree)
		lt.reset(cfg, opts.Wake[id], skew, false)
		return lt
	}, nil
}

// LineToTreeBudget returns the rounds a LineToTree run over at most
// sizeBound nodes takes at branching b when its nodes' wakes spread
// over skew rounds: stage 1 and stage 2 below, plus slack.
func LineToTreeBudget(sizeBound, branching, skew int) int {
	return stage1Rounds(sizeBound, skew) + 2*adoptK(branching) + 4
}

// stage1Rounds is the length of the binary build over m = sizeBound
// nodes: ~2 rounds per hop level with ⌈log2 m⌉+O(1) levels, doubled for
// ladder interleaving, plus wake skew and slack. Stage 2 (compression,
// b > 2 only) follows: adoptK(b) rounds of grandchild adoption, each
// halving the depth and squaring the branching. This is the log log n
// lever of §5: depth drops from log m to ~log m / log b.
func stage1Rounds(sizeBound, skew int) int {
	return 4*(bits.Len(uint(sizeBound))+3) + skew + 8
}

// adoptK is the number of adopt-grandchildren compression rounds for
// branching b: the largest k whose root child count 2^(2^k+1)-2 still
// respects b.
func adoptK(b int) int {
	k := 0
	for rootCC := 6; b >= rootCC; rootCC = (rootCC+2)*(rootCC+2)/2 - 2 {
		k++
	}
	return k
}

// reset re-initialises m in place as node cfg.Self of a run whose
// round 0 is cfg.StartRound-1, keeping the capacity of its buffers.
// The node wakes wake rounds after round 0, the run's wakes spread over
// skew rounds, and an embedded node never halts its host.
func (m *LineToTree) reset(cfg EmbeddedConfig, wake, skew int, embedded bool) {
	base := cfg.StartRound - 1
	*m = LineToTree{
		wake:      base + wake,
		budget:    base + LineToTreeBudget(cfg.SizeBound, cfg.Branching, skew),
		stage1End: base + stage1Rounds(cfg.SizeBound, skew),
		adoptK:    adoptK(cfg.Branching),
		selfID:    cfg.Self,
		isRoot:    cfg.IsRoot,
		parent:    cfg.Parent,
		embedded:  embedded,
		keep:      cfg.KeepEdge,
		children:  m.children[:0],
		childEA:   m.childEA[:0],
		inflight:  m.inflight[:0],
		out:       treeMsg{Children: m.out.Children[:0]},

		parentCC:    -1,
		oldParentCC: -1,
	}
	if cfg.IsRoot {
		m.parent = cfg.Self
	}
	if cfg.HasChild {
		m.children = append(m.children, cfg.Child)
		m.childEA = append(m.childEA, 0)
	}
}

// Init implements sim.Machine.
func (m *LineToTree) Init(ctx *sim.Context) {
	if m.isRoot {
		ctx.SetStatus(sim.StatusLeader)
	} else {
		ctx.SetStatus(sim.StatusFollower)
	}
}

// Send implements sim.Machine.
func (m *LineToTree) Send(ctx *sim.Context) {
	if ctx.Round() <= m.wake {
		return // still asleep
	}
	m.out = treeMsg{
		EA:        m.ea,
		DEA:       m.dea,
		HasParent: !m.isRoot,
		Parent:    m.parent,
		Children:  append(m.out.Children[:0], m.children...),

		ParentCC:     m.parentCC,
		AmFirstChild: m.amFirstChild,
		ParentAwake:  m.parentAwake,

		HasOld:        m.hasOld,
		OldParent:     m.oldParent,
		OldParentCC:   m.oldParentCC,
		OldParentWake: m.oldParentWake,
		LadderPending: m.hasOld && m.childBehind(),
	}
	ctx.Broadcast(&m.out)
}

// childBehind reports whether some child has not yet climbed past our
// old parent edge (EA_x <= DEA_u): it may still need that edge as the
// ladder for its next hop, whose target IS our old parent.
func (m *LineToTree) childBehind() bool {
	for _, ea := range m.childEA {
		if ea <= m.dea {
			return true
		}
	}
	return false
}

// heardFrom returns the state id broadcast this round, or nil if id
// was silent. The engine delivers the inbox sender-sorted with one
// broadcast per sender, so the inbox is the round's "heard" table.
func heardFrom(inbox []sim.Message, id graph.ID) *treeMsg {
	for i := range inbox {
		if inbox[i].From == id {
			if st, ok := inbox[i].Payload.(*treeMsg); ok {
				return st
			}
		}
	}
	return nil
}

// correctedCC returns the child count of node t given its broadcast
// child list, adding departures of our own children toward t that t
// has not yet registered.
func (m *LineToTree) correctedCC(t graph.ID, listed []graph.ID) int {
	cc := len(listed)
	pending := m.inflight[:0]
	for _, d := range m.inflight {
		switch {
		case d.target != t:
			pending = append(pending, d)
		case slices.Contains(listed, d.child):
			// registered: stop correcting
		default:
			pending = append(pending, d)
			cc++
		}
	}
	m.inflight = pending
	return cc
}

// Receive implements sim.Machine.
func (m *LineToTree) Receive(ctx *sim.Context, inbox []sim.Message) {
	round := ctx.Round()
	if round >= m.budget {
		if !m.embedded {
			ctx.Halt()
		}
		return
	}
	if round <= m.wake {
		return // asleep: ignore everything, touch nothing
	}

	m.refreshChildren(inbox)
	switch {
	case round > m.stage1End:
		// Stage 2 (b > 2): compression. Every node with a grandparent
		// hops to it — one TreeToStar-style step per adoption slot —
		// which halves the depth and squares the branching.
		t := round - m.stage1End
		if t%2 == 0 && t/2 <= m.adoptK {
			m.adoptHop(ctx, inbox)
		}
	case round%2 == 1:
		m.maybeActivate(ctx, inbox)
	default:
		m.maybeDeactivate(ctx, inbox)
	}
	m.noteParents(inbox)
}

// noteParents folds what this round's inbox says about the parent and
// the old parent — as they stand now, after any hop — into the words
// the next Send forwards.
func (m *LineToTree) noteParents(inbox []sim.Message) {
	m.parentAwake, m.parentCC, m.amFirstChild = false, -1, false
	if !m.isRoot {
		if st := heardFrom(inbox, m.parent); st != nil {
			m.parentAwake = true
			m.parentCC = m.correctedCC(m.parent, st.Children)
			m.amFirstChild = len(st.Children) > 0 && st.Children[0] == m.selfID
		}
	}
	m.oldParentWake, m.oldParentCC = false, -1
	if m.hasOld {
		if st := heardFrom(inbox, m.oldParent); st != nil {
			m.oldParentWake = true
			m.oldParentCC = m.correctedCC(m.oldParent, st.Children)
		}
	}
}

// adoptHop performs one depth-halving step: climb to the grandparent
// and release the parent edge, exactly like TreeToStar but bounded to
// adoptK repetitions.
func (m *LineToTree) adoptHop(ctx *sim.Context, inbox []sim.Message) {
	if m.isRoot {
		return
	}
	v := heardFrom(inbox, m.parent)
	if v == nil || !v.HasParent || v.Parent == m.selfID {
		return // parent is the root: already at depth 1
	}
	ctx.Activate(v.Parent)
	if m.keep == nil || !m.keep(m.parent) {
		ctx.Deactivate(m.parent)
	}
	m.parent = v.Parent
}

// refreshChildren integrates this round's parent claims: a node is our
// child exactly while it declares us as its parent. Asleep children
// (no broadcast yet) stay listed — silence is not departure.
func (m *LineToTree) refreshChildren(inbox []sim.Message) {
	kept := 0
	for i, c := range m.children {
		ea := m.childEA[i]
		if st := heardFrom(inbox, c); st != nil {
			if !st.HasParent || st.Parent != m.selfID {
				// Track the departure for child-count correction.
				if st.HasParent {
					if d := (departure{st.Parent, c}); !slices.Contains(m.inflight, d) {
						m.inflight = append(m.inflight, d)
					}
				}
				continue
			}
			ea = st.EA
		}
		m.children[kept], m.childEA[kept] = c, ea
		kept++
	}
	m.children, m.childEA = m.children[:kept], m.childEA[:kept]
	// Append new claimants in deterministic (ascending sender) order.
	for i := range inbox {
		st, ok := inbox[i].Payload.(*treeMsg)
		if ok && st.HasParent && st.Parent == m.selfID && !slices.Contains(m.children, inbox[i].From) {
			m.children = append(m.children, inbox[i].From)
			m.childEA = append(m.childEA, st.EA)
		}
	}
}

func (m *LineToTree) maybeActivate(ctx *sim.Context, inbox []sim.Message) {
	if m.isRoot || m.dea != m.ea {
		return // dirty ladder: the old parent edge must go first
	}
	v := heardFrom(inbox, m.parent) // parent must be awake this round
	if v == nil {
		return
	}
	if len(v.Children) == 0 || v.Children[0] != m.selfID {
		return // only the firstborn climbs
	}

	var target graph.ID
	var targetCC int
	switch {
	case v.EA == m.ea:
		// Aligned: synchronous doubling step to v's current parent.
		if !v.HasParent || !v.ParentAwake || !v.AmFirstChild {
			return
		}
		target, targetCC = v.Parent, v.ParentCC
	case v.EA == m.ea+1:
		// Ladder: climb through v's retained old parent edge.
		if !v.HasOld || !v.OldParentWake {
			return
		}
		target, targetCC = v.OldParent, v.OldParentCC
	default:
		// v is behind (EA_v < EA_u): wait for it to catch up — the
		// positional invariant of Lemma B.4 forbids overtaking.
		return
	}
	if targetCC < 0 || targetCC >= 2 {
		return // unknown or full grandparent (stage 1 is binary)
	}
	if target == m.selfID {
		return // degenerate two-node corner: nothing above to climb
	}
	ctx.Activate(target)
	m.oldParent = m.parent
	m.hasOld = true
	m.parent = target
	m.ea++
}

func (m *LineToTree) maybeDeactivate(ctx *sim.Context, inbox []sim.Message) {
	if !m.hasOld || m.ea != m.dea+1 {
		return
	}
	// Cut only once every child has climbed past the old edge
	// (EA_x >= DEA_u + 1, the paper's EA_x = DEA_u + 1 condition
	// generalized to several children).
	if m.childBehind() {
		return
	}
	// A neighbor that still holds its own pending ladder INTO us can
	// deliver a late-arriving child (a lagging descendant climbs
	// through that retained edge and lands here needing our ladder
	// next) — and a silent neighbor might be exactly that, still
	// asleep. Both block the cut; this is the message-passing
	// realization of the paper's "u, v, x are awake" guard. Every
	// sender is a distinct neighbor, so all were heard exactly when
	// the states heard number the degree.
	heard := 0
	for i := range inbox {
		st, ok := inbox[i].Payload.(*treeMsg)
		if !ok {
			continue
		}
		if st.HasOld && st.OldParent == m.selfID && st.LadderPending {
			return
		}
		heard++
	}
	if heard != ctx.Degree() {
		return
	}
	if m.keep == nil || !m.keep(m.oldParent) {
		ctx.Deactivate(m.oldParent)
	}
	m.hasOld = false
	m.dea++
}
