package core

import (
	"math/bits"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/subroutine"
)

// GraphToWreath message payloads (§4, Appendix B). The phase is a fixed
// global schedule of windows (see wreathSched); each payload belongs to
// one window. Every payload with a field travels as a pointer to the
// sender's scratch (the *Out fields of GraphToWreath) under
// DESIGN.md § "Payload-scratch contract"; the empty ones box for free.
type (
	// wReport is the convergecast aggregate flowing up the committee
	// tree: the best foreign committee seen plus the border pair that
	// saw it, and whether any foreign committee is adjacent at all.
	wReport struct {
		HasBest    bool
		Best       graph.ID // foreign committee UID
		BorderX    graph.ID // our member adjacent to it
		ContactY   graph.ID // their member it is adjacent to
		AnyForeign bool
	}
	// wDecision flows down the committee tree after the leader decides.
	wDecision struct {
		Terminate bool
		Selected  bool
		Target    graph.ID // target committee UID (its leader)
		BorderX   graph.ID
		ContactY  graph.ID
	}
	// wAttach is the border-to-contact request opening a splice.
	wAttach struct{ CommitteeUID graph.ID }
	// wTailRev is the border's follow-up one step later: its exact ear
	// tail (known only after its own admissions settled) and whether
	// it is itself hosting attachers this phase — in which case its
	// tail is a dangling path end rather than a splice point.
	wTailRev struct {
		Tail    graph.ID
		Hosting bool
	}
	// wChain is the host's splice assignment to an admitted border.
	wChain struct {
		NewCCW     graph.ID // the border's new ccw ring neighbor
		TailTarget graph.ID // where the border's tail must connect
		TailNone   bool     // dangling ear: no tail connection (path end)
	}
	// wReject denies an attach for this phase.
	wReject struct{}
	// wExpect tells the host's old cw neighbor its new ccw neighbor.
	wExpect struct{ NewCCW graph.ID }
	// wSplice instructs the border's tail where to connect.
	wSplice struct{ Target graph.ID }
	// wFlagUp convergecasts attach/reject flags to the leader.
	wFlagUp struct{ Attached, Rejected bool }
	// wEngaged broadcasts the leader's merge-participation verdict.
	wEngaged struct{ Engaged bool }
	// wCut tells a ring's far end that it has no line child.
	wCut struct{}
	// wParent is broadcast during the closure window so the hopping
	// tail can climb the fresh tree toward the root.
	wParent struct {
		Parent graph.ID
		IsRoot bool
	}
	// wRingClose tells the root the ring closure edge has arrived.
	wRingClose struct{}
	// wInfo floods the merged committee's new leader down the new tree.
	wInfo struct{ Leader graph.ID }
)

// wreathWindow names one window of a wreath phase; the windows run in
// this order.
type wreathWindow uint8

const (
	winAnnounce wreathWindow = iota
	winUp
	winDown
	winAttach
	winTail
	winChain
	winSplice // three steps: splice target, bridges (spliceRound1), commit (spliceRound2)
	winFlagUp
	winEngDown
	winCut
	winRebuild
	winClose
	winInfo
	numWindows
)

// wreathSched fixes the per-phase windows, identical at every node
// (computed from n, which §5 grants to all nodes; for §4 it is a
// scheduling simplification, DESIGN.md § "Known deviations and failures").
// newWreathSched is the one place a window's width is written.
type wreathSched struct {
	// end[w] is the first phase step after window w, so end[winInfo]
	// is the phase length.
	end [numWindows]int
}

func newWreathSched(n, branching int) wreathSched {
	// Window size: covers the worst committee tree depth with margin.
	// The rebuilt binary tree has depth <= ceil(log2 n)+1, but partial
	// merges can stack a constant number of extra levels per phase, so
	// budget double that plus slack.
	d := 2*bits.Len(uint(n)) + 6
	width := [numWindows]int{
		winAnnounce: 1,
		winUp:       d,
		winDown:     d,
		winAttach:   1,
		winTail:     1,
		winChain:    1,
		winSplice:   3,
		winFlagUp:   d,
		winEngDown:  d,
		winCut:      1,
		winRebuild:  subroutine.EmbeddedWindow(n, branching),
		winClose:    d + 2,
		winInfo:     d + 1,
	}
	var s wreathSched
	at := 0
	for w, wd := range width {
		at += wd
		s.end[w] = at
	}
	return s
}

// at returns the window engine round falls in and the round's index
// inside it, comparing the phase step against the window ends in phase
// order. The compares are written out because a loop over the ends
// costs about a third more per lookup, and Send and Receive each look
// up every round.
func (s *wreathSched) at(round int) (wreathWindow, int) {
	e := &s.end
	step := (round - 1) % e[winInfo]
	switch {
	case step < e[winAnnounce]:
		return winAnnounce, step
	case step < e[winUp]:
		return winUp, step - e[winAnnounce]
	case step < e[winDown]:
		return winDown, step - e[winUp]
	case step < e[winAttach]:
		return winAttach, step - e[winDown]
	case step < e[winTail]:
		return winTail, step - e[winAttach]
	case step < e[winChain]:
		return winChain, step - e[winTail]
	case step < e[winSplice]:
		return winSplice, step - e[winChain]
	case step < e[winFlagUp]:
		return winFlagUp, step - e[winSplice]
	case step < e[winEngDown]:
		return winEngDown, step - e[winFlagUp]
	case step < e[winCut]:
		return winCut, step - e[winEngDown]
	case step < e[winRebuild]:
		return winRebuild, step - e[winCut]
	case step < e[winClose]:
		return winClose, step - e[winRebuild]
	}
	return winInfo, step - e[winClose]
}

// WreathPhaseLength returns the fixed phase length (rounds) of
// GraphToWreath / GraphToThinWreath for n nodes and the given gadget
// branching factor.
func WreathPhaseLength(n, branching int) int { return newWreathSched(n, branching).end[winInfo] }

// StarPhaseLength is the fixed phase length (rounds) of GraphToStar,
// whatever n.
const StarPhaseLength = 8

// WreathBranching returns the gadget arity used for n nodes: 2 for the
// wreath, bits.Len(n) = ⌊log2 n⌋+1 (at least 2) for the thin wreath —
// one more than ⌈log2 n⌉ at a power of two, kept because the thin
// wreath's traces are pinned to it.
func WreathBranching(n int, thin bool) int {
	if !thin {
		return 2
	}
	b := bits.Len(uint(n))
	if b < 2 {
		b = 2
	}
	return b
}

// WreathDepth is the Depth-d Tree target of both wreaths (Theorems
// 4.2 and 5.1): the tree rooted at u_max has depth at most
// bits.Len(n)+1 = ⌊log2 n⌋+2. The binary gadget stays within
// ⌈log2 n⌉+1, the thin gadget below that.
func WreathDepth(n int) int { return bits.Len(uint(n)) + 1 }

// WreathMaxRounds is a generous engine round limit for the wreath
// algorithms: O(log n) phases of the fixed phase length.
func WreathMaxRounds(n, branching int) int {
	return WreathPhaseLength(n, branching) * (6*bits.Len(uint(n)) + 16)
}

// GraphToWreath is the §4 algorithm (and, via NewGraphToThinWreath-
// Factory, the §5 GraphToThinWreath). Committees are wreaths — a
// spanning ring plus a complete b-ary tree rooted at the leader. Each
// phase: committees discover neighbors over original edges, select the
// greatest neighbor committee, merge by splicing their rings into the
// target's ring (concurrent ear insertion with a tail-revision
// handshake; singleton chains compose as oriented paths), rebuild the
// tree from the merged line with the embedded line-to-tree subroutine,
// close the ring again by hopping the line's tail up the fresh tree,
// and flood the new leader. It solves Depth-log n Tree with O(1)
// maximum activated degree (Theorem 4.2); the thin variant keeps
// polylog degree with a shallower gadget (Theorem 5.1).
type GraphToWreath struct {
	opts     WreathOptions
	selfID   graph.ID
	n        int
	branch   int
	admitCap int // >0: per-contact admission cap (ThinWreath matchmaker)
	sched    wreathSched

	leader graph.ID
	// Ring/path pointers; == selfID means none on that side.
	cw, ccw graph.ID
	// Tree pointers; parent == selfID at the root (the leader).
	parent   graph.ID
	children []graph.ID

	// orig is the static original neighborhood, ascending: the engine's
	// frozen view, bound in Init and searched, never copied.
	orig []graph.ID

	wreathPhase
	hostingReqs []wAttachEnv // finalizeAdmissions scratch

	// inner is the embedded rebuild, held by value and re-initialised in
	// place every phase (rebuilding marks it live); keepEdge is its
	// KeepEdge, the method value m.keepPtr built once per machine.
	inner    subroutine.LineToTree
	keepEdge func(graph.ID) bool

	terminating bool
	halted      bool

	// Outgoing payload scratch, written in Send only (see the payload
	// types above). up, decision, flagUp and engaged change in Receive,
	// so Send snapshots them here instead of sending them by address.
	annOut    Announce
	upOut     wReport
	decOut    wDecision
	attachOut wAttach
	tailOut   wTailRev
	chainOut  []wChain // one per admitted border
	expectOut wExpect
	spliceOut wSplice
	flagOut   wFlagUp
	engOut    wEngaged
	parentOut wParent
	infoOut   wInfo
}

// wreathPhase is the per-phase scratch, started afresh at every
// announce step.
type wreathPhase struct {
	up       wReport // aggregate so far
	decision wDecision
	decided  bool

	rawReqs      []wAttachEnv // host: raw attach requests
	attachers    []wAttachEnv // host: admitted, chain order
	rejectedReqs []wAttachEnv
	danglerLast  bool     // last admitted ear dangles (path end)
	oldCW        graph.ID // host: cw at admission time
	hostActive   bool

	chainCCW   graph.ID // border: my new ccw
	tailTarget graph.ID // border: where my tail connects
	tailNone   bool
	chainOK    bool
	rejected   bool
	spliceT    graph.ID // tail role: target to connect to
	spliceSet  bool
	tempBridge bool

	attachedFlag bool
	flagUp       wFlagUp
	engaged      bool
	engagedMark  bool
	amRoot       bool
	noLineChild  bool
	rebuilding   bool // the embedded rebuild is live

	// Closure-window scratch: the line tail hops up the new tree.
	closing   bool
	anchor    graph.ID
	closeDone bool
	closeSent bool

	infoLeader graph.ID
	infoSeen   bool
}

// fresh returns the scratch a phase starts with, keeping p's buffers.
func (p *wreathPhase) fresh() wreathPhase {
	return wreathPhase{rawReqs: p.rawReqs[:0], attachers: p.attachers[:0], rejectedReqs: p.rejectedReqs[:0]}
}

type wAttachEnv struct {
	From    graph.ID
	UID     graph.ID
	Tail    graph.ID
	Hosting bool
}

var _ sim.Machine = (*GraphToWreath)(nil)

// NewGraphToWreathFactory returns the §4 machine factory (binary-tree
// wreath gadget, unlimited admission).
func NewGraphToWreathFactory() sim.Factory {
	return NewWreathFactoryOpts(WreathOptions{})
}

// NewGraphToThinWreathFactory returns the §5 machine factory
// (⌈log n⌉-ary gadget, per-contact admission cap — the matchmaker of
// Appendix C reduced to bounded admission: DESIGN.md § "Known deviations and failures").
func NewGraphToThinWreathFactory() sim.Factory {
	return NewWreathFactoryOpts(WreathOptions{Thin: true, AdmitCap: 2})
}

// WreathOptions tunes the wreath family for ablation studies.
type WreathOptions struct {
	// Thin selects the ⌈log n⌉-ary gadget (§5) over the binary one (§4).
	Thin bool
	// AdmitCap bounds how many attachers one contact admits per phase
	// (0 = unlimited). The ThinWreath matchmaker uses 2.
	AdmitCap int
	// Branching overrides the gadget arity (0 = derive from Thin/n).
	Branching int
}

// NewWreathFactoryOpts returns a wreath machine factory with explicit
// knobs; the ablation benchmarks sweep AdmitCap and Branching.
func NewWreathFactoryOpts(o WreathOptions) sim.Factory {
	return func(id graph.ID, env sim.Env) sim.Machine {
		m := &GraphToWreath{opts: o}
		m.keepEdge = m.keepPtr
		m.Recycle(id, env)
		return m
	}
}

var _ sim.Recycler = (*GraphToWreath)(nil)

// Recycle implements sim.Recycler: it restores the machine to its
// factory-fresh state for (id, env) — the schedule follows env.N —
// keeping its options (one recycling key names one factory), its
// buffers and the embedded rebuild's, so a recycling engine re-runs
// wreath cells without building a machine.
func (m *GraphToWreath) Recycle(id graph.ID, env sim.Env) {
	b := m.opts.Branching
	if b == 0 {
		b = WreathBranching(env.N, m.opts.Thin)
	}
	*m = GraphToWreath{
		opts:     m.opts,
		selfID:   id,
		n:        env.N,
		branch:   b,
		admitCap: m.opts.AdmitCap,
		sched:    newWreathSched(env.N, b),
		leader:   id,
		cw:       id,
		ccw:      id,
		parent:   id,

		children:    m.children[:0],
		wreathPhase: m.fresh(),
		hostingReqs: m.hostingReqs[:0],
		chainOut:    m.chainOut[:0],
		inner:       m.inner,
		keepEdge:    m.keepEdge,
	}
}

// Init implements sim.Machine.
func (m *GraphToWreath) Init(ctx *sim.Context) {
	m.orig = ctx.OrigNeighbors()
}

// Send implements sim.Machine.
func (m *GraphToWreath) Send(ctx *sim.Context) {
	if m.halted {
		return
	}
	w, i := m.sched.at(ctx.Round())
	switch w {
	case winAnnounce:
		m.annOut = Announce{Leader: m.leader, Mode: ModeSelection}
		for _, v := range m.orig {
			ctx.Send(v, &m.annOut)
		}
	case winUp:
		if m.parent != m.selfID {
			m.upOut = m.up
			ctx.Send(m.parent, &m.upOut)
		}
	case winDown:
		if m.isLeader() && !m.decided {
			m.decide()
		}
		if m.decided {
			m.decOut = m.decision
			for _, c := range m.children {
				ctx.Send(c, &m.decOut)
			}
		}
	case winAttach:
		if m.decided && m.decision.Selected && m.decision.BorderX == m.selfID {
			m.attachOut = wAttach{CommitteeUID: m.leader}
			ctx.Send(m.decision.ContactY, &m.attachOut)
		}
	case winTail:
		if m.decided && m.decision.Selected && m.decision.BorderX == m.selfID {
			m.tailOut = wTailRev{Tail: m.earTail(), Hosting: len(m.rawReqs) > 0}
			ctx.Send(m.decision.ContactY, &m.tailOut)
		}
	case winChain:
		m.sendChainAssignments(ctx)
	case winSplice:
		if i == 0 && m.chainOK && !m.tailNone && m.ccw != m.selfID {
			m.spliceOut = wSplice{Target: m.tailTarget}
			ctx.Send(m.ccw, &m.spliceOut)
		}
	case winFlagUp:
		if m.parent != m.selfID {
			m.flagOut = m.flagUp
			ctx.Send(m.parent, &m.flagOut)
		}
	case winEngDown:
		if m.isLeader() && !m.engagedMark {
			selectedOK := m.decision.Selected && !m.flagUp.Rejected
			m.engaged = selectedOK || m.flagUp.Attached
			m.amRoot = m.flagUp.Attached && !selectedOK
			m.engagedMark = true
		}
		if m.engagedMark {
			m.engOut = wEngaged{Engaged: m.engaged}
			for _, c := range m.children {
				ctx.Send(c, &m.engOut)
			}
		}
	case winCut:
		if m.engaged && m.isLeader() && m.amRoot && m.ccw != m.selfID {
			ctx.Send(m.ccw, wCut{})
		}
	case winRebuild:
		if m.rebuilding {
			m.inner.Send(ctx)
		}
	case winClose:
		if m.engaged {
			m.parentOut = wParent{Parent: m.parent, IsRoot: m.parent == m.selfID}
			ctx.Broadcast(&m.parentOut)
			if m.closeDone && !m.closeSent {
				ctx.Send(m.anchor, wRingClose{})
				m.closeSent = true
			}
		}
	case winInfo:
		if m.infoSeen {
			m.infoOut = wInfo{Leader: m.infoLeader}
			for _, c := range m.children {
				ctx.Send(c, &m.infoOut)
			}
		}
	}
}

// Receive implements sim.Machine.
func (m *GraphToWreath) Receive(ctx *sim.Context, inbox []sim.Message) {
	if m.halted {
		return
	}
	w, i := m.sched.at(ctx.Round())
	switch w {
	case winAnnounce:
		m.checkInvariants(ctx)
		m.wreathPhase = m.fresh()
		m.seedAggregate(inbox)
	case winUp:
		for _, msg := range inbox {
			if rep, ok := msg.Payload.(*wReport); ok {
				m.mergeReport(rep)
			}
		}
	case winDown:
		if m.terminating {
			m.terminate(ctx)
			return
		}
		for _, msg := range inbox {
			if dec, ok := msg.Payload.(*wDecision); ok && msg.From == m.parent {
				m.decision = *dec
				m.decided = true
				if dec.Terminate {
					m.terminating = true
				}
			}
		}
	case winAttach:
		for _, msg := range inbox {
			if req, ok := msg.Payload.(*wAttach); ok {
				m.rawReqs = append(m.rawReqs, wAttachEnv{From: msg.From, UID: req.CommitteeUID})
			}
		}
	case winTail:
		m.finalizeAdmissions(inbox)
	case winChain:
		for _, msg := range inbox {
			switch pl := msg.Payload.(type) {
			case *wChain:
				m.chainOK = true
				m.chainCCW = pl.NewCCW
				m.tailTarget = pl.TailTarget
				m.tailNone = pl.TailNone
			case wReject:
				m.rejected = true
			case *wExpect:
				m.ccw = pl.NewCCW // safe: t-rule keeps borders out of this slot
			}
		}
		m.flagUp = wFlagUp{Attached: m.attachedFlag, Rejected: m.rejected}
	case winSplice:
		switch i {
		case 0:
			for _, msg := range inbox {
				if sp, ok := msg.Payload.(*wSplice); ok {
					m.spliceT = sp.Target
					m.spliceSet = true
				}
			}
		case 1:
			m.spliceRound1(ctx)
		case 2:
			m.spliceRound2(ctx)
		}
	case winFlagUp:
		for _, msg := range inbox {
			if f, ok := msg.Payload.(*wFlagUp); ok {
				m.flagUp.Attached = m.flagUp.Attached || f.Attached
				m.flagUp.Rejected = m.flagUp.Rejected || f.Rejected
			}
		}
	case winEngDown:
		for _, msg := range inbox {
			if e, ok := msg.Payload.(*wEngaged); ok && msg.From == m.parent {
				m.engaged = e.Engaged
				m.engagedMark = true
			}
		}
	case winCut:
		for _, msg := range inbox {
			if _, ok := msg.Payload.(wCut); ok {
				m.noLineChild = true
			}
		}
		m.prepareRebuild(ctx)
	case winRebuild:
		if m.rebuilding {
			m.inner.Receive(ctx, inbox)
			// The window is the embedded node's budget, so its
			// budget runs out on the window's last step.
			if m.inner.Done(ctx.Round()) {
				m.adoptRebuiltTree(ctx)
			}
		}
	case winClose:
		m.closeRing(ctx, inbox)
	case winInfo:
		for _, msg := range inbox {
			if info, ok := msg.Payload.(*wInfo); ok && msg.From == m.parent {
				m.infoLeader = info.Leader
				m.infoSeen = true
				m.leader = info.Leader
			}
		}
	}
}

// wreathDebugHook, when set by white-box tests, receives descriptions
// of per-node structural invariant violations at every phase boundary.
var wreathDebugHook func(round int, id graph.ID, desc string)

// checkInvariants verifies that every structural pointer is backed by
// an active edge. It is a no-op unless a test installed the hook.
func (m *GraphToWreath) checkInvariants(ctx *sim.Context) {
	if wreathDebugHook == nil {
		return
	}
	chk := func(p graph.ID, what string) {
		if p != m.selfID && !ctx.HasNeighbor(p) {
			wreathDebugHook(ctx.Round(), m.selfID, what)
		}
	}
	chk(m.cw, "cw")
	chk(m.ccw, "ccw")
	chk(m.parent, "parent")
	for _, c := range m.children {
		chk(c, "child")
	}
}
