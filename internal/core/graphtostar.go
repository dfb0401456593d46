package core

import (
	"math/bits"
	"slices"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
)

// GraphToStar message payloads. Each is exchanged at a fixed step of
// the StarPhaseLength-round phase schedule (see phaseStep).
type (
	// gtsReport is a member's phase report to its leader, and the
	// leader's fold of its members' reports: the best selectable
	// foreign committee seen over original edges (highest UID, then
	// lowest via; see fold), and whether any foreign committee is
	// adjacent at all.
	gtsReport struct {
		BestLeader graph.ID // highest selectable foreign committee UID
		Via        graph.ID // the foreign member it was seen through
		HasBest    bool
		AnyForeign bool
	}
	// gtsQuery asks a pulling target for its situation.
	gtsQuery struct{}
	// gtsReply answers a gtsQuery: either "I am a root, merge into me"
	// or "follow my outgoing link / my leader".
	gtsReply struct {
		Root bool
		Next graph.ID
	}
	// gtsLeaderLink announces a fresh leader-to-leader selection edge.
	gtsLeaderLink struct{}
	// gtsSelState answers a gtsLeaderLink: Paired means the target did
	// not itself select, so the sender should merge; otherwise the
	// sender enters pulling mode (§3, Selection).
	gtsSelState struct{ Paired bool }
	// gtsJoined registers the sender as a new follower of the receiver.
	gtsJoined struct{}
	// gtsNextMode is the leader's phase-end broadcast fixing the
	// committee mode (and merge target) for the next phase.
	gtsNextMode struct {
		Mode   Mode
		Target graph.ID
	}
)

// fold takes a sighting of the committee leader, seen through the
// foreign member via, into r: the highest leader wins, and of equal
// leaders the lowest via. The order is total, so folding sightings in
// any order gives the same report.
func (r *gtsReport) fold(leader, via graph.ID) {
	if !r.HasBest || leader > r.BestLeader || (leader == r.BestLeader && via < r.Via) {
		r.HasBest, r.BestLeader, r.Via = true, leader, via
	}
}

// merge folds a member's report into r.
func (r *gtsReport) merge(o *gtsReport) {
	r.AnyForeign = r.AnyForeign || o.AnyForeign
	if o.HasBest {
		r.fold(o.BestLeader, o.Via)
	}
}

// GraphToStar is the §3 algorithm: committees are stars; selection
// links star centers; pairs merge in one phase and trees of committees
// collapse through the pulling mode (TreeToStar on committees). It
// solves Depth-1 Tree — the final network is a spanning star centered
// at u_max, the elected leader — in O(log n) rounds with O(n log n)
// total edge activations and at most 2n activated edges alive per
// round (Theorem 3.8).
type GraphToStar struct {
	selfID graph.ID
	leader graph.ID
	// target is the node this committee acts toward: the merge target
	// in merging mode, the currently queried node in pulling mode.
	target graph.ID
	// followers is the leader's member list, kept sorted ascending so
	// membership tests are binary searches and iteration is
	// deterministic.
	followers []graph.ID

	// Phase scratch, reset at every phase start. rep is this phase's
	// report: a member folds its step-0 announcements into it, and a
	// leader its members' step-1 reports too (§3: one value per
	// member, max-folded at the leader).
	rep        gtsReport
	queriers   []graph.ID // pulling committees that queried us
	linkers    []graph.ID // leaders that linked to us this phase
	selTarget  graph.ID   // leader of the selected committee
	hop1       graph.ID   // border member used as the first hop
	replyNext  graph.ID   // pulling: the hop the query reply named
	prevTarget graph.ID   // pulling: the target before the hop
	role       Role
	mode       Mode

	selecting   bool
	hop1Temp    bool // hop1 edge was activated and must be dropped
	gotLink     bool // received a leader link this phase
	repliedRoot bool // answered a pulling query with Root
	paired      bool
	replySeen   bool

	// Pulling scratch: what the query reply said and whether it made
	// us hop.
	replyRootSeen   bool
	replyFollowSeen bool
	hopped          bool

	// execMerge is true during the phase that actually executes this
	// committee's merge (mode was already Merging at phase start), as
	// opposed to the phase in which the merge was merely scheduled by
	// a pairing reply or a pulling Root reply.
	execMerge bool

	// Outgoing payload scratch. Multi-field payloads are sent as
	// pointers to these machine-owned values (a member's report is rep
	// itself) so a round's broadcasts box no interfaces and allocate
	// nothing: the engine's Send/Receive phases are barrier-separated
	// and receivers copy what they keep, so the pointee is stable for
	// exactly as long as it is readable. (Round hooks that retain
	// messages must deep-copy such payloads; see sim.RoundEvent.)
	selOut   gtsSelState
	annOut   Announce
	replyOut gtsReply
	nextOut  gtsNextMode
}

var _ sim.Machine = (*GraphToStar)(nil)

// StarBound is what Theorem 3.8 promises GraphToStar on n nodes, with
// the constants this implementation meets: O(log n) phases of
// StarPhaseLength rounds, at most 4·n·⌈log₂ n⌉ activations and 2n
// activated edges alive, and the spanning star at u_max, a tree of
// depth 1.
func StarBound(n int) tasks.Bound {
	l := bits.Len(uint(n))
	return tasks.Bound{
		Rounds:          StarPhaseLength * (4*l + 8),
		Activations:     4 * n * bits.Len(uint(n-1)),
		ActivatedEdges:  2 * n,
		ActivatedDegree: n - 1,
		Depth:           1,
	}
}

// NewGraphToStarFactory returns the machine factory for the §3
// algorithm.
func NewGraphToStarFactory() sim.Factory {
	return func(id graph.ID, _ sim.Env) sim.Machine {
		return &GraphToStar{
			selfID: id,
			role:   RoleLeader,
			leader: id,
			mode:   ModeSelection,
		}
	}
}

var _ sim.Recycler = (*GraphToStar)(nil)

// Recycle implements sim.Recycler: it restores the machine to its
// factory-fresh state for (id, env) while keeping the capacity of its
// follower, querier and linker slices, making repeated runs through a
// recycling engine allocation-free.
func (m *GraphToStar) Recycle(id graph.ID, _ sim.Env) {
	*m = GraphToStar{
		selfID:    id,
		role:      RoleLeader,
		leader:    id,
		mode:      ModeSelection,
		followers: m.followers[:0],
		queriers:  m.queriers[:0],
		linkers:   m.linkers[:0],
	}
}

// Leader returns the node's current committee leader (itself if it is
// a leader). Exposed for tests and invariant checks.
func (m *GraphToStar) Leader() graph.ID { return m.leader }

// Role returns the node's current role.
func (m *GraphToStar) Role() Role { return m.role }

func phaseStep(round int) int { return (round - 1) % StarPhaseLength }

// needMask is the phase's calls this state needs made on an empty
// inbox: bit 2·step for Send, bit 2·step+1 for Receive (the table is in
// DESIGN.md § "GraphToStar (§3)"). A clear bit is a call that would do
// nothing; a message wakes any Receive anyway.
func (m *GraphToStar) needMask() uint32 {
	need := uint32(1 << 1) // step 0 Receive: resetPhase, terminate
	if m.mode != ModeTermination {
		need |= 1 << 0 // step 0 Send: the announce
	}
	if m.mode == ModeMerging {
		need |= 1<<5 | 1<<6 // step 2 Receive: move to the winner; step 3 Send: join it
	}
	if len(m.queriers) > 0 {
		need |= 1 << 6 // step 3 Send: the query replies
	}
	if len(m.linkers) > 0 {
		need |= 1 << 10 // step 5 Send: the link replies
	}
	if m.role != RoleLeader {
		need |= 1 << 2 // step 1 Send: the report; a leader's own is folded already
		if m.mode == ModeMerging {
			need |= 1 << 7 // step 3 Receive: take the winner as leader
		}
		return need
	}
	need |= 1<<5 | 1<<14 // step 2 Receive: decideSelection; step 7 Send: decideNextMode
	if m.mode == ModePulling {
		need |= 1 << 4 // step 2 Send: the query
		if m.hopped {
			need |= 1 << 11 // step 5 Receive: drop the previous target
		}
		if m.replyRootSeen || m.replyFollowSeen {
			need |= 1 << 9 // step 4 Receive: pullHop
		}
	}
	if m.selecting {
		need |= 1 << 8 // step 4 Send: the leader link
		if m.hop1 != m.selTarget {
			need |= 1 << 7 // step 3 Receive: the second hop
			if m.hop1Temp {
				need |= 1 << 9 // step 4 Receive: drop the first hop
			}
		}
	}
	return need
}

// nextCall returns the position (2·round + phase, phase 0 Send and 1
// Receive) of the first call after pos that this state needs on an
// empty inbox. The mask is doubled so the search wraps into the next
// phase; bit 1 is always set, so it ends within it.
func (m *GraphToStar) nextCall(pos int) int {
	bit := 2*phaseStep(pos/2) + pos%2
	if bit == 0 {
		return pos + 1 // bit 1 is always set
	}
	need := m.needMask()
	need |= need << (2 * StarPhaseLength)
	return pos + 1 + bits.TrailingZeros32(need>>(bit+1))
}

// skipIdle declares, after the call at pos, the calls this machine
// does not need (sim.Context.SkipUntil).
func (m *GraphToStar) skipIdle(ctx *sim.Context, pos int) {
	if next := m.nextCall(pos); next > pos+1 {
		ctx.SkipUntil(next/2, next%2 == 1)
	}
}

// Init implements sim.Machine.
func (m *GraphToStar) Init(*sim.Context) {}

// Send implements sim.Machine. Like Receive, it then tells the engine
// which of the next calls it does not need (skipIdle).
func (m *GraphToStar) Send(ctx *sim.Context) {
	m.send(ctx)
	m.skipIdle(ctx, 2*ctx.Round())
}

// Receive implements sim.Machine.
func (m *GraphToStar) Receive(ctx *sim.Context, inbox []sim.Message) {
	m.receive(ctx, inbox)
	m.skipIdle(ctx, 2*ctx.Round()+1)
}

func (m *GraphToStar) send(ctx *sim.Context) {
	switch phaseStep(ctx.Round()) {
	case 0: // ANNOUNCE over original edges
		if m.mode == ModeTermination {
			return // this phase tears down and halts instead
		}
		m.annOut = Announce{Leader: m.leader, Mode: m.mode}
		for _, v := range ctx.OrigNeighbors() {
			ctx.Send(v, &m.annOut)
		}
	case 1: // REPORT to leader; a leader's own is folded already
		if m.role == RoleFollower {
			ctx.Send(m.leader, &m.rep)
		}
	case 2: // pulling leaders query their target
		if m.role == RoleLeader && m.mode == ModePulling {
			ctx.Send(m.target, gtsQuery{})
		}
	case 3: // query replies; merging members register with the winner
		if len(m.queriers) > 0 {
			m.replyOut = m.makeReply()
			for _, q := range m.queriers {
				ctx.Send(q, &m.replyOut)
			}
			m.queriers = m.queriers[:0]
		}
		if m.mode == ModeMerging {
			// Both the dying leader (over its leader link) and its
			// followers (over the star edges activated at step 2)
			// register as followers of the winner.
			ctx.Send(m.target, gtsJoined{})
		}
	case 4: // fresh selection links announce themselves
		if m.role == RoleLeader && m.selecting {
			ctx.Send(m.selTarget, gtsLeaderLink{})
		}
	case 5: // link replies
		if len(m.linkers) > 0 {
			m.selOut = gtsSelState{Paired: m.isPairable()}
			for _, l := range m.linkers {
				ctx.Send(l, &m.selOut)
			}
		}
	case 7: // NEXTMODE broadcast to followers
		if m.role == RoleLeader {
			m.decideNextMode()
			m.nextOut = gtsNextMode{Mode: m.mode, Target: m.target}
			for _, f := range m.followers {
				ctx.Send(f, &m.nextOut)
			}
		}
	}
}

func (m *GraphToStar) receive(ctx *sim.Context, inbox []sim.Message) {
	switch phaseStep(ctx.Round()) {
	case 0:
		if m.mode == ModeTermination {
			m.terminate(ctx)
			return
		}
		m.resetPhase()
		for _, msg := range inbox {
			if ann, ok := msg.Payload.(*Announce); ok && ann.Leader != m.leader {
				m.rep.AnyForeign = true
				if ann.Mode.selectable() {
					m.rep.fold(ann.Leader, msg.From)
				}
			}
		}
	case 1:
		if m.role == RoleLeader {
			for _, msg := range inbox {
				if rep, ok := msg.Payload.(*gtsReport); ok {
					m.rep.merge(rep)
				}
			}
		}
	case 2:
		for _, msg := range inbox {
			if _, ok := msg.Payload.(gtsQuery); ok {
				m.queriers = append(m.queriers, msg.From)
			}
		}
		if m.role == RoleLeader {
			m.decideSelection(ctx)
		}
		if m.role == RoleFollower && m.mode == ModeMerging {
			// Move to the winning star: f-w via f-m(star), m-w(link).
			ctx.Activate(m.target)
		}
	case 3:
		joined := false
		for _, msg := range inbox {
			switch pl := msg.Payload.(type) {
			case gtsJoined:
				m.followers = append(m.followers, msg.From)
				joined = true
			case *gtsReply:
				if m.role == RoleLeader && m.mode == ModePulling && msg.From == m.target {
					if pl.Root {
						m.replyRootSeen = true
					} else {
						m.replyFollowSeen = true
						m.replyNext = pl.Next
					}
				}
			}
		}
		if joined {
			// Restore the sorted invariant (new joiners arrive in sender
			// order, not globally sorted) and drop any duplicates.
			slices.Sort(m.followers)
			m.followers = slices.Compact(m.followers)
		}
		if m.role == RoleLeader && m.selecting && m.hop1 != m.selTarget {
			// Second hop: connect to the target committee's leader over
			// the border member's star edge.
			ctx.Activate(m.selTarget)
		}
		if m.role == RoleFollower && m.mode == ModeMerging {
			if !ctx.IsOriginal(m.leader) {
				ctx.Deactivate(m.leader)
			}
			m.leader = m.target
		}
	case 4:
		for _, msg := range inbox {
			if _, ok := msg.Payload.(gtsLeaderLink); ok {
				m.linkers = append(m.linkers, msg.From)
				m.gotLink = true
			}
		}
		if m.role == RoleLeader {
			if m.selecting && m.hop1Temp && m.hop1 != m.selTarget && !ctx.IsOriginal(m.hop1) {
				ctx.Deactivate(m.hop1)
			}
			if m.mode == ModePulling {
				m.pullHop(ctx)
			}
		}
	case 5:
		for _, msg := range inbox {
			if st, ok := msg.Payload.(*gtsSelState); ok && msg.From == m.selTarget {
				m.paired = st.Paired
				m.replySeen = true
			}
		}
		if m.role == RoleLeader && m.mode == ModePulling && m.hopped && !ctx.IsOriginal(m.prevTarget) {
			ctx.Deactivate(m.prevTarget)
		}
	case 7:
		if m.role == RoleFollower {
			for _, msg := range inbox {
				if nm, ok := msg.Payload.(*gtsNextMode); ok && msg.From == m.leader {
					m.mode = nm.Mode
					m.target = nm.Target
				}
			}
		}
	}
}

// decideSelection reads the committee's folded report at step 2 for
// any leader: no foreign committee adjacent is the termination
// condition (decideNextMode), and in selection mode it picks the
// greatest selectable foreign committee above our own UID and starts
// building the leader link (first hop to the border member).
func (m *GraphToStar) decideSelection(ctx *sim.Context) {
	if !m.rep.AnyForeign || m.mode != ModeSelection {
		return
	}
	if !m.rep.HasBest || m.rep.BestLeader <= m.selfID {
		return // nothing greater around: remain in selection
	}
	m.selecting = true
	m.selTarget = m.rep.BestLeader
	m.hop1 = m.rep.Via
	if !ctx.HasNeighbor(m.hop1) {
		// First hop: L-y via the reporting member x (star edge L-x and
		// original edge x-y are both active).
		ctx.Activate(m.hop1)
		m.hop1Temp = true
	}
}

// makeReply answers a pulling query given our current situation.
func (m *GraphToStar) makeReply() gtsReply {
	if m.role == RoleFollower {
		return gtsReply{Next: m.leader}
	}
	switch {
	case m.selecting:
		return gtsReply{Next: m.selTarget}
	case m.mode == ModeMerging || m.mode == ModePulling:
		return gtsReply{Next: m.target}
	default:
		m.repliedRoot = true
		return gtsReply{Root: true}
	}
}

// isFollower reports membership in the sorted follower list.
func (m *GraphToStar) isFollower(v graph.ID) bool {
	_, ok := slices.BinarySearch(m.followers, v)
	return ok
}

// isPairable reports whether a selector of this committee should merge
// (we are a root: not selecting, not dying) rather than pull.
func (m *GraphToStar) isPairable() bool {
	return m.role == RoleLeader && !m.selecting &&
		m.mode != ModeMerging && m.mode != ModePulling
}

// pullHop processes the query reply in pulling mode: hop along the
// tree of committees (TreeToStar on committees) or switch to merging
// if the target turned out to be a root.
func (m *GraphToStar) pullHop(ctx *sim.Context) {
	if !m.replyRootSeen && !m.replyFollowSeen {
		return
	}
	if m.replyRootSeen {
		m.mode = ModeMerging // merge into target next phase
		return
	}
	next := m.replyNext
	if next == m.target {
		return
	}
	ctx.Activate(next) // witness: L-target, target-next
	m.prevTarget = m.target
	m.target = next
	m.hopped = true
}

// terminate executes the Termination mode (§3): drop every edge except
// the star edges, declare statuses, halt.
func (m *GraphToStar) terminate(ctx *sim.Context) {
	ctx.EachNeighbor(func(v graph.ID) bool {
		switch {
		case m.role == RoleFollower && v == m.leader:
		case m.role == RoleLeader && m.isFollower(v):
		default:
			ctx.Deactivate(v)
		}
		return true
	})
	if m.role == RoleLeader {
		ctx.SetStatus(sim.StatusLeader)
	} else {
		ctx.SetStatus(sim.StatusFollower)
	}
	ctx.Halt()
}

// decideNextMode is the leader's phase-end transition (step 7).
func (m *GraphToStar) decideNextMode() {
	switch m.mode {
	case ModeSelection, ModeWaiting:
		switch {
		case !m.rep.AnyForeign:
			m.mode = ModeTermination
		case m.selecting && m.replySeen && m.paired:
			m.mode = ModeMerging
			m.target = m.selTarget
		case m.selecting && m.replySeen && !m.paired:
			m.mode = ModePulling
			m.target = m.selTarget
		case m.selecting && !m.replySeen:
			// Defensive: the link is up but unanswered; resolve it via
			// the pulling query protocol next phase.
			m.mode = ModePulling
			m.target = m.selTarget
		case m.gotLink || m.repliedRoot:
			m.mode = ModeWaiting
		default:
			m.mode = ModeSelection
		}
	case ModeMerging:
		if !m.execMerge {
			// Merge scheduled by a pulling Root reply this phase; it
			// executes next phase.
			return
		}
		// The committee has merged; this leader is now a follower of
		// the winner. Its erstwhile followers already moved.
		m.role = RoleFollower
		m.leader = m.target
		m.followers = m.followers[:0]
	case ModePulling:
		// mode may have been flipped to merging by pullHop; nothing to
		// do otherwise - the next phase queries the new target.
	}
}

func (m *GraphToStar) resetPhase() {
	m.execMerge = m.mode == ModeMerging
	m.rep = gtsReport{}
	m.selecting = false
	m.selTarget = 0
	m.hop1 = 0
	m.hop1Temp = false
	m.gotLink = false
	m.repliedRoot = false
	m.paired = false
	m.replySeen = false
	m.queriers = m.queriers[:0]
	m.linkers = m.linkers[:0]
	m.replyRootSeen = false
	m.replyFollowSeen = false
	m.replyNext = 0
	m.hopped = false
	m.prevTarget = 0
}
