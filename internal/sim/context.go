package sim

import "adnet/internal/graph"

// Context is a node's window onto the network for the current round.
// One Context belongs to exactly one node and must not be retained
// beyond the current callback. All query methods read the snapshot
// E(i) frozen at the start of the round: no intent of this round shows
// before History.Apply commits the round.
//
// Contexts are owned and recycled by the Engine, one per slot. Send
// resolves the destination's slot and appends straight to its inbox,
// and Activate/Deactivate append to the engine's one intent batch (the
// very slices History.Apply commits in place), so neither a message
// nor an intent is held here; nor is what every node shares (the
// History, n), which is read through the engine.
type Context struct {
	id  graph.ID
	eng *Engine

	round  int
	slot   int32
	halted bool
	status Status
	err    *Failure
}

// reset rebinds the context to a node for a new run. The slot and
// engine bindings are the engine's (Reset sets them) and survive a
// reboot.
func (c *Context) reset(id graph.ID) {
	c.id = id
	c.round = 0
	c.halted = false
	c.status = StatusNone
	c.err = nil
}

// ID returns this node's UID.
func (c *Context) ID() graph.ID { return c.id }

// Round returns the current round number (1-based; 0 during Init).
func (c *Context) Round() int { return c.round }

// N returns the number of nodes, a model constant granted to nodes
// (explicitly assumed in the paper's §5; used elsewhere only for
// engineering-level scheduling: DESIGN.md § "Known deviations and failures").
func (c *Context) N() int { return c.eng.n }

// Neighbors returns N1 at the start of the round, ascending. The slice
// is fresh and owned by the caller; prefer EachNeighbor in per-round
// hot paths.
func (c *Context) Neighbors() []graph.ID { return c.eng.hist.NeighborsOf(c.id) }

// EachNeighbor calls fn for every current neighbor in ascending order,
// stopping early if fn returns false. It performs no allocation.
func (c *Context) EachNeighbor(fn func(v graph.ID) bool) {
	c.eng.hist.EachNeighborOf(c.id, fn)
}

// HasNeighbor reports whether v is currently a neighbor.
func (c *Context) HasNeighbor(v graph.ID) bool { return c.eng.hist.Active(c.id, v) }

// Degree returns |N1|.
func (c *Context) Degree() int { return c.eng.hist.DegreeOf(c.id) }

// IsOriginal reports whether the edge to v belongs to E(1). The
// paper's algorithms keep original edges active until termination and
// nodes can always distinguish them.
func (c *Context) IsOriginal(v graph.ID) bool { return c.eng.hist.IsOriginal(c.id, v) }

// OrigNeighbors returns the node's neighbors in the initial graph Gs,
// ascending. (Static information: a node always knows who its original
// neighbors are.) The slice is a shared immutable view of the frozen
// initial neighborhood — it costs no allocation, and callers must not
// modify it.
func (c *Context) OrigNeighbors() []graph.ID {
	return c.eng.hist.InitialNeighborsView(c.id)
}

// Send delivers a message to neighbor v: the destination is resolved
// to its slot and the message appended to that slot's inbox, which v
// reads in this round's Receive. Only the Send phase delivers; a Send
// from Init or Receive is dropped. A send to a node that is not a
// neighbor in E(i) fails the run once the Send phase is over (under an
// environment the message is lost instead), and a crashed destination
// drops the message.
func (c *Context) Send(to graph.ID, payload any) {
	e := c.eng
	if !e.sending {
		return
	}
	slot, ok := e.hist.SlotOf(to)
	if !ok || !e.hist.Active(c.id, to) {
		if e.cfg.env == nil && e.sendErr == nil {
			e.sendErr = &Failure{Kind: NonNeighborSend, Round: c.round, Node: c.id, Peer: to}
		}
		return
	}
	c.deliver(slot, to, payload)
}

// deliver is the one delivery step behind Send and Broadcast: it
// appends the message to the inbox of slot, node to's slot, and counts
// it, unless that slot is crashed. The caller has checked that the
// Send phase is on and that to is a neighbor in E(i).
func (c *Context) deliver(slot int, to graph.ID, payload any) {
	e := c.eng
	if e.downCount > 0 && e.crashed[slot] {
		return
	}
	e.inboxes[slot] = append(e.inboxes[slot], Message{From: c.id, To: to, Payload: payload})
	e.roundMsgs++
}

// SkipUntil promises the engine that this node's calls before the
// given round's Send (receive false) or Receive (receive true) would
// do nothing as long as its inbox is empty: the engine then skips its
// Send calls before that point, and its Receive calls too unless a
// message arrives. Every call the engine makes clears the promise, so
// a machine that never calls SkipUntil is stepped at every call.
func (c *Context) SkipUntil(round int, receive bool) {
	c.eng.wake[c.slot] = position(round, receive)
}

// Broadcast sends the payload to every current neighbor under Send's
// rules. It walks the node's own row of E(i), every entry of which is
// a neighbor, and hands each to Send's delivery step without Send's
// check; it allocates nothing.
func (c *Context) Broadcast(payload any) {
	if !c.eng.sending {
		return
	}
	h := c.eng.hist
	h.EachNeighborOf(c.id, func(v graph.ID) bool {
		slot, _ := h.SlotOf(v)
		c.deliver(slot, v, payload)
		return true
	})
}

// Activate requests activation of edge {self, v} this round. The model
// validates the distance-2 rule when the round is applied. Intents
// issued in Send or Receive commit with that round; one issued in Init
// is dropped (the engine empties the batches before every Send phase).
func (c *Context) Activate(v graph.ID) {
	if v == c.id {
		c.fail("activated a self-loop")
		return
	}
	c.eng.batch.Activate = append(c.eng.batch.Activate, graph.NewEdge(c.id, v))
}

// Deactivate requests deactivation of edge {self, v} this round.
func (c *Context) Deactivate(v graph.ID) {
	if v == c.id {
		c.fail("deactivated a self-loop")
		return
	}
	c.eng.batch.Deactivate = append(c.eng.batch.Deactivate, graph.NewEdge(c.id, v))
}

// SetStatus records the node's leader-election outcome.
func (c *Context) SetStatus(s Status) { c.status = s }

// Halt marks the node terminated. A halted node sends nothing,
// receives nothing and issues no further intents; the engine stops
// when every node has halted. Edge intents issued in the same round as
// Halt are still applied.
func (c *Context) Halt() { c.halted = true }

// fail records the node's self-loop intent, unless it already failed.
func (c *Context) fail(intent string) {
	if c.err == nil {
		c.err = &Failure{Kind: ModelViolation, Round: c.round, Node: c.id, Peer: c.id, Detail: intent}
	}
}
