package core

import (
	"cmp"
	"slices"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/subroutine"
)

func (m *GraphToWreath) isLeader() bool { return m.leader == m.selfID }

// mustKeep reports whether the edge to p is load-bearing: a ring/path
// pointer, a tree pointer (the old tree carries this phase's flag and
// engagement windows until teardown), or an original edge.
func (m *GraphToWreath) mustKeep(p graph.ID) bool {
	if m.keepPtr(p) {
		return true
	}
	if m.parent != m.selfID && p == m.parent {
		return true
	}
	return slices.Contains(m.children, p)
}

// keepPtr reports whether the edge to p outlives a tree teardown: a
// ring/path pointer or an original edge. It is also the embedded
// rebuild's KeepEdge.
func (m *GraphToWreath) keepPtr(p graph.ID) bool {
	if p == m.cw || p == m.ccw {
		return true
	}
	_, orig := slices.BinarySearch(m.orig, p)
	return orig
}

// seedAggregate initializes this phase's convergecast aggregate from
// the announcements of the node's own original-edge neighborhood: every
// neighbor announcing a foreign committee is a contact into it.
func (m *GraphToWreath) seedAggregate(inbox []sim.Message) {
	m.up = wReport{}
	for _, msg := range inbox {
		ann, ok := msg.Payload.(*Announce)
		if !ok || ann.Leader == m.leader {
			continue
		}
		via, uid := msg.From, ann.Leader
		m.up.AnyForeign = true
		if !m.up.HasBest || uid > m.up.Best ||
			(uid == m.up.Best && via < m.up.ContactY) {
			m.up.HasBest = true
			m.up.Best = uid
			m.up.BorderX = m.selfID
			m.up.ContactY = via
		}
	}
}

// mergeReport folds a child's aggregate into ours (max by committee
// UID, deterministic tie-breaks).
func (m *GraphToWreath) mergeReport(rep *wReport) {
	m.up.AnyForeign = m.up.AnyForeign || rep.AnyForeign
	if !rep.HasBest {
		return
	}
	if !m.up.HasBest || rep.Best > m.up.Best ||
		(rep.Best == m.up.Best && (rep.BorderX < m.up.BorderX ||
			(rep.BorderX == m.up.BorderX && rep.ContactY < m.up.ContactY))) {
		m.up.HasBest = true
		m.up.Best = rep.Best
		m.up.BorderX = rep.BorderX
		m.up.ContactY = rep.ContactY
	}
}

// decide is the leader's phase decision at the top of the DOWN window.
func (m *GraphToWreath) decide() {
	m.decided = true
	if !m.up.AnyForeign {
		m.decision = wDecision{Terminate: true}
		m.terminating = true
		return
	}
	if m.up.HasBest && m.up.Best > m.selfID {
		m.decision = wDecision{
			Selected: true,
			Target:   m.up.Best,
			BorderX:  m.up.BorderX,
			ContactY: m.up.ContactY,
		}
		return
	}
	m.decision = wDecision{}
}

// earTail reports this border's ear tail as of the attach: the ring
// ccw run end, or itself for a singleton. If the committee is itself
// hosting this phase the tail is superseded by the Hosting flag — the
// host will leave the ear dangling instead of splicing its end.
func (m *GraphToWreath) earTail() graph.ID {
	if m.ccw == m.selfID {
		return m.selfID
	}
	return m.ccw
}

// finalizeAdmissions runs at the tail-revision step: raw attach
// requests plus their revisions become the final admitted chain.
//
// Rules:
//   - tail-conflict: if our committee selected through border x and we
//     are x's ring-ccw neighbor, our cw-side cut edge is the border's
//     ccw-side cut edge; hosting here would double-book it. Reject.
//   - hosting attachers (their ear tail is still in flux) are admitted
//     only at a path end (our cw side is open), at most one, placed
//     last, with a dangling ear. This is what lets singleton chains -
//     the increasing-line worst case - compose into one path per
//     phase instead of serializing.
//   - an admission cap (ThinWreath) bounds the chain length.
func (m *GraphToWreath) finalizeAdmissions(inbox []sim.Message) {
	if len(m.rawReqs) == 0 {
		return
	}
	reject := func(a wAttachEnv) { m.rejectedReqs = append(m.rejectedReqs, a) }
	if m.decided && m.decision.Selected && m.cw == m.decision.BorderX && m.cw != m.selfID {
		for _, a := range m.rawReqs {
			reject(a)
		}
		return
	}
	settled, hosting := m.attachers[:0], m.hostingReqs[:0]
	for _, a := range m.rawReqs {
		r := tailRevFrom(inbox, a.From)
		if r == nil {
			reject(a) // no revision: treat as unreliable
			continue
		}
		if a.From == m.cw || a.From == m.ccw || r.Tail == m.cw || r.Tail == m.ccw {
			// The attacher (or its tail) already occupies one of our
			// ring slots — a degenerate geometry; retry next phase.
			reject(a)
			continue
		}
		a.Tail = r.Tail
		a.Hosting = r.Hosting
		if a.Hosting {
			hosting = append(hosting, a)
		} else {
			settled = append(settled, a)
		}
	}
	m.hostingReqs = hosting // keep the grown buffer
	byUID := func(a, b wAttachEnv) int { return cmp.Compare(b.UID, a.UID) }
	slices.SortFunc(settled, byUID)
	slices.SortFunc(hosting, byUID)

	admitted := settled
	pathEnd := m.cw == m.selfID
	var dangler *wAttachEnv
	if pathEnd && len(hosting) > 0 {
		dangler = &hosting[0]
		hosting = hosting[1:]
	}
	for _, a := range hosting {
		reject(a)
	}
	if m.admitCap > 0 {
		limit := m.admitCap
		if dangler != nil {
			limit--
		}
		if limit < 0 {
			limit = 0
		}
		if len(admitted) > limit {
			for _, a := range admitted[limit:] {
				reject(a)
			}
			admitted = admitted[:limit]
		}
	}
	if dangler != nil {
		admitted = append(admitted, *dangler)
	}
	m.attachers = admitted
	m.attachedFlag = len(admitted) > 0
	m.danglerLast = dangler != nil
}

// tailRevFrom returns the tail revision from sent this round, or nil.
func tailRevFrom(inbox []sim.Message, from graph.ID) *wTailRev {
	for i := range inbox {
		if inbox[i].From == from {
			if r, ok := inbox[i].Payload.(*wTailRev); ok {
				return r
			}
		}
	}
	return nil
}

// sendChainAssignments is the host side of the splice: hand every
// admitted border its new ccw neighbor and its tail's connection
// target, chained in UID order; tell our old cw neighbor its new ccw;
// reject the rest.
func (m *GraphToWreath) sendChainAssignments(ctx *sim.Context) {
	for _, r := range m.rejectedReqs {
		ctx.Send(r.From, wReject{})
	}
	if len(m.attachers) == 0 {
		return
	}
	m.hostActive = true
	m.oldCW = m.cw
	last := len(m.attachers) - 1
	// Sized before any element's address is sent: one per border.
	m.chainOut = slices.Grow(m.chainOut[:0], len(m.attachers))[:len(m.attachers)]
	for i, a := range m.attachers {
		ch := &m.chainOut[i]
		*ch = wChain{}
		if i == 0 {
			ch.NewCCW = m.selfID
		} else {
			ch.NewCCW = m.attachers[i-1].Tail
		}
		switch {
		case i < last:
			ch.TailTarget = m.attachers[i+1].From
		case m.danglerLast || m.oldCW == m.selfID:
			// Dangling ear or open cw side: the merged structure stays
			// a path here; the closure window will turn it back into a
			// ring after the rebuild.
			ch.TailNone = true
		default:
			ch.TailTarget = m.oldCW
		}
		ctx.Send(a.From, ch)
	}
	if m.oldCW != m.selfID {
		m.expectOut = wExpect{NewCCW: m.attachers[last].Tail}
		ctx.Send(m.oldCW, &m.expectOut)
	}
}

// spliceRound1 lays the temporary bridges the ear tails will climb
// over; singleton borders connect directly (their ear tail is
// themselves).
func (m *GraphToWreath) spliceRound1(ctx *sim.Context) {
	if !m.chainOK || m.tailNone {
		return
	}
	if m.tailTarget == m.selfID {
		// Degenerate assignment (the chain closed on ourselves): treat
		// the ear as dangling; the closure window reconnects the ring.
		m.tailNone = true
		return
	}
	// Witness path: border-contact (original) plus contact-target
	// (original toward the next border, ring edge toward the host's
	// old cw neighbor).
	if !ctx.HasNeighbor(m.tailTarget) {
		ctx.Activate(m.tailTarget)
	}
	m.tempBridge = m.ccw != m.selfID
}

// spliceRound2 completes the splice: tails connect over the bridges,
// bridges are torn down, pointers commit, and replaced ring edges are
// dropped where no pointer references them anymore.
func (m *GraphToWreath) spliceRound2(ctx *sim.Context) {
	// Tail role: connect to the assigned target over our border's
	// bridge, and point cw at it.
	if m.spliceSet && m.spliceT != m.selfID {
		if !ctx.HasNeighbor(m.spliceT) {
			ctx.Activate(m.spliceT)
		}
		m.cw = m.spliceT
	}
	// Border role: commit ccw; retire the bridge and the replaced ring
	// edge.
	if m.chainOK {
		oldCCW := m.ccw
		wasSingleton := oldCCW == m.selfID
		m.ccw = m.chainCCW
		if wasSingleton {
			if !m.tailNone {
				m.cw = m.tailTarget // direct connection made in round 1
			}
		} else {
			if m.tempBridge && !m.mustKeep(m.tailTarget) {
				ctx.Deactivate(m.tailTarget)
			}
			if !m.mustKeep(oldCCW) {
				ctx.Deactivate(oldCCW)
			}
		}
	}
	// Host role: commit cw to the first admitted border, retire the
	// replaced cw edge.
	if m.hostActive {
		old := m.oldCW
		m.cw = m.attachers[0].From
		if old != m.selfID && !m.mustKeep(old) {
			ctx.Deactivate(old)
		}
	}
}

// prepareRebuild runs at the teardown step: engaged nodes drop their
// old tree edges (ring/path and original edges persist) and stand up
// the embedded line-to-tree instance over the merged line, oriented
// ccw toward the root committee's leader.
func (m *GraphToWreath) prepareRebuild(ctx *sim.Context) {
	if !m.engaged {
		return
	}
	if m.parent != m.selfID && !m.keepPtr(m.parent) {
		ctx.Deactivate(m.parent)
	}
	for _, c := range m.children {
		if !m.keepPtr(c) {
			ctx.Deactivate(c)
		}
	}
	m.children = m.children[:0]
	isRoot := m.isLeader() && m.amRoot
	m.parent = m.selfID
	cfg := subroutine.EmbeddedConfig{
		Self:       m.selfID,
		Branching:  m.branch,
		IsRoot:     isRoot,
		StartRound: ctx.Round() + 1,
		SizeBound:  m.n,
		KeepEdge:   m.keepEdge,
	}
	if !isRoot {
		cfg.Parent = m.ccw
	}
	// The line runs cw-ward from the root. A node with an open cw side
	// is the far end of a path merge; a node told by wCut is the far
	// end of a ring merge (the root's ccw ring edge is the logically
	// cut one - it stays active but carries no line orientation).
	if m.cw != m.selfID && !m.noLineChild {
		cfg.Child = m.cw
		cfg.HasChild = true
	}
	m.inner.ResetEmbedded(cfg)
	m.rebuilding = true
}

// adoptRebuiltTree installs the rebuilt tree pointers at the end of
// the rebuild window. Children whose claims were in flight when the
// window closed (they hopped away in the very last activation round)
// are pruned by checking the actual edge.
func (m *GraphToWreath) adoptRebuiltTree(ctx *sim.Context) {
	parent, isRoot := m.inner.FinalParent()
	m.children = m.children[:0]
	for _, c := range m.inner.FinalChildren() {
		if ctx.HasNeighbor(c) {
			m.children = append(m.children, c)
		}
	}
	if isRoot {
		m.parent = m.selfID
		m.leader = m.selfID
		m.infoLeader = m.selfID
		m.infoSeen = true
	} else {
		m.parent = parent
	}
	m.rebuilding = false
	// Closure bootstrap: a node whose cw side is open is the tail of a
	// path merge and must re-close the ring by climbing the new tree.
	if m.engaged && m.cw == m.selfID && !isRoot {
		m.closing = true
		m.anchor = m.parent
	}
}

// closeRing runs during the closure window: a path-merge tail hops its
// closure edge up the fresh tree, one level per round, until it
// reaches the root; the resulting (tail, root) edge is the ring
// closure (O(log n) rounds, O(1) degree).
func (m *GraphToWreath) closeRing(ctx *sim.Context, inbox []sim.Message) {
	if !m.engaged {
		return
	}
	var st *wParent // what the anchor broadcast, if it did
	for _, msg := range inbox {
		switch pl := msg.Payload.(type) {
		case *wParent:
			if msg.From == m.anchor {
				st = pl
			}
		case wRingClose:
			// Only the structure's root (tree root) may accept the
			// closure edge; strays from a fragmented merge are ignored.
			if m.parent == m.selfID {
				m.ccw = msg.From
			}
		}
	}
	if !m.closing || m.closeDone {
		return
	}
	if st == nil {
		return
	}
	if st.IsRoot {
		// The anchor is the head: the (tail, head) edge closes the
		// ring. It already exists (it is the current hop edge); the
		// notification goes out in the next Send slot of the window.
		m.cw = m.anchor
		m.closeDone = true
		return
	}
	next := st.Parent
	if next == m.selfID || next == m.anchor {
		return
	}
	ctx.Activate(next) // witness: (tail, anchor), (anchor, next)
	if !m.mustKeep(m.anchor) {
		ctx.Deactivate(m.anchor)
	}
	m.anchor = next
}

// terminate executes the Termination mode: keep only the spanning tree
// (the paper's Gf), declare statuses, halt.
func (m *GraphToWreath) terminate(ctx *sim.Context) {
	ctx.EachNeighbor(func(v graph.ID) bool {
		// A neighbor is never selfID, so the root's parent == selfID
		// matches nothing.
		if v != m.parent && !slices.Contains(m.children, v) {
			ctx.Deactivate(v)
		}
		return true
	})
	if m.isLeader() {
		ctx.SetStatus(sim.StatusLeader)
	} else {
		ctx.SetStatus(sim.StatusFollower)
	}
	m.halted = true
	ctx.Halt()
}
