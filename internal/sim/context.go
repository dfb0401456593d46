package sim

import (
	"fmt"

	"adnet/internal/graph"
	"adnet/internal/temporal"
)

// Context is a node's window onto the network for the current round.
// One Context belongs to exactly one node and must not be retained
// beyond the current callback. All query methods read the snapshot
// E(i) frozen at the start of the round: no intent of this round shows
// before History.Apply commits the round.
//
// Contexts are owned and recycled by the Engine, one per slot, and
// outgoing messages record their destination slot at Send time so
// delivery is pure slice indexing. Edge intents are not held here:
// batch is the engine's one intent batch, the very slices History.Apply
// reads, so an intent is written once.
type Context struct {
	id    graph.ID
	hist  *temporal.History
	env   Env
	batch *temporal.IntentBatch

	round  int
	outbox []outMsg
	halted bool
	status Status
	err    error
}

// outMsg is an outbox entry: the message plus its destination slot,
// resolved once at Send time (-1 when the destination is not a node;
// delivery reports it as a non-neighbor send).
type outMsg struct {
	m    Message
	slot int32
}

// reset rebinds the context to a node for a new run, recycling
// its buffers. Stale outbox entries — the full capacity, not just the
// last round's length — are zeroed so payloads from the previous run
// cannot leak through reused backing arrays. The batch binding is the
// engine's (Reset sets it) and survives a reboot.
func (c *Context) reset(id graph.ID, hist *temporal.History, env Env) {
	c.id, c.hist, c.env = id, hist, env
	c.round = 0
	c.scrub()
	c.halted = false
	c.status = StatusNone
	c.err = nil
}

// scrub empties the outbox and drops every payload reference it held,
// keeping the backing array for reuse.
func (c *Context) scrub() {
	outbox := c.outbox[:cap(c.outbox)]
	for i := range outbox {
		outbox[i] = outMsg{}
	}
	c.outbox = c.outbox[:0]
}

func (c *Context) beginRound(r int) {
	c.round = r
	c.outbox = c.outbox[:0]
}

// ID returns this node's UID.
func (c *Context) ID() graph.ID { return c.id }

// Round returns the current round number (1-based; 0 during Init).
func (c *Context) Round() int { return c.round }

// N returns the number of nodes, a model constant granted to nodes
// (explicitly assumed in the paper's §5; used elsewhere only for
// engineering-level scheduling, as documented in DESIGN.md).
func (c *Context) N() int { return c.env.N }

// Neighbors returns N1 at the start of the round, ascending. The slice
// is fresh and owned by the caller; prefer EachNeighbor or
// NeighborsInto in per-round hot paths.
func (c *Context) Neighbors() []graph.ID { return c.hist.NeighborsOf(c.id) }

// EachNeighbor calls fn for every current neighbor in ascending order,
// stopping early if fn returns false. It performs no allocation.
func (c *Context) EachNeighbor(fn func(v graph.ID) bool) {
	c.hist.EachNeighborOf(c.id, fn)
}

// NeighborsInto appends N1, ascending, to dst[:0] and returns it,
// reusing dst's backing array when it has capacity.
func (c *Context) NeighborsInto(dst []graph.ID) []graph.ID {
	return c.hist.NeighborsInto(c.id, dst)
}

// HasNeighbor reports whether v is currently a neighbor.
func (c *Context) HasNeighbor(v graph.ID) bool { return c.hist.Active(c.id, v) }

// Degree returns |N1|.
func (c *Context) Degree() int { return c.hist.DegreeOf(c.id) }

// IsOriginal reports whether the edge to v belongs to E(1). The
// paper's algorithms keep original edges active until termination and
// nodes can always distinguish them.
func (c *Context) IsOriginal(v graph.ID) bool { return c.hist.IsOriginal(c.id, v) }

// OrigNeighbors returns the node's neighbors in the initial graph Gs,
// ascending. (Static information: a node always knows who its original
// neighbors are.) The slice is a shared immutable view of the frozen
// initial neighborhood — it costs no allocation, and callers must not
// modify it.
func (c *Context) OrigNeighbors() []graph.ID {
	return c.hist.InitialNeighborsView(c.id)
}

// Send queues a message to neighbor v for delivery this round. The
// destination is resolved to its dense slot here, once, so the
// engine's delivery loop is pure slice indexing.
func (c *Context) Send(to graph.ID, payload any) {
	slot, ok := c.hist.SlotOf(to)
	if !ok {
		slot = -1
	}
	c.outbox = append(c.outbox, outMsg{
		m:    Message{From: c.id, To: to, Payload: payload},
		slot: int32(slot),
	})
}

// Broadcast queues the payload to every current neighbor. It iterates
// the sorted adjacency directly and does not allocate a neighbor slice.
func (c *Context) Broadcast(payload any) {
	c.hist.EachNeighborOf(c.id, func(v graph.ID) bool {
		c.Send(v, payload)
		return true
	})
}

// Activate requests activation of edge {self, v} this round. The model
// validates the distance-2 rule when the round is applied. Intents
// issued in Send or Receive commit with that round; one issued in Init
// is dropped (the engine empties the batches before every Send phase).
func (c *Context) Activate(v graph.ID) {
	if v == c.id {
		c.fail(fmt.Errorf("sim: node %d activated a self-loop", c.id))
		return
	}
	c.batch.Activate = append(c.batch.Activate, graph.NewEdge(c.id, v))
}

// Deactivate requests deactivation of edge {self, v} this round.
func (c *Context) Deactivate(v graph.ID) {
	if v == c.id {
		c.fail(fmt.Errorf("sim: node %d deactivated a self-loop", c.id))
		return
	}
	c.batch.Deactivate = append(c.batch.Deactivate, graph.NewEdge(c.id, v))
}

// SetStatus records the node's leader-election outcome.
func (c *Context) SetStatus(s Status) { c.status = s }

// Status returns the current recorded status.
func (c *Context) Status() Status { return c.status }

// Halt marks the node terminated. A halted node sends nothing,
// receives nothing and issues no further intents; the engine stops
// when every node has halted. Edge intents issued in the same round as
// Halt are still applied.
func (c *Context) Halt() { c.halted = true }

// Halted reports whether the node has halted.
func (c *Context) Halted() bool { return c.halted }

func (c *Context) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
