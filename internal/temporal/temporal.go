// Package temporal implements the paper's temporal-graph model
// (§2.1): a static node set whose active edge set E(i) evolves round by
// round under the distance-2 activation rule, together with the three
// edge-complexity measures of §2.2 (total edge activations, maximum
// activated edges per round, maximum activated degree).
//
// History is the single source of truth for the dynamic network. Both
// the distributed engine (internal/sim) and the centralized strategies
// (internal/baseline) mutate the network exclusively through
// History.Apply, so every algorithm in this repository is validated
// against the same model rules and measured by the same accounting.
package temporal

import (
	"cmp"
	"fmt"
	"slices"

	"adnet/internal/graph"
)

// Violation describes an edge intent that breaks the model rules.
// Attempting to activate an already-active edge or deactivate an
// inactive one is NOT a violation (the paper defines those as no-ops);
// activating an edge with no common active neighbor is.
type Violation struct {
	Round int
	Edge  graph.Edge
	Op    string // "activate" or "deactivate"
	Why   string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("temporal: round %d: illegal %s of %v: %s", v.Round, v.Op, v.Edge, v.Why)
}

// RoundStats records the accounting of one completed round.
type RoundStats struct {
	Round          int
	Activated      int // |Eac(i)|: edges that became active this round
	Deactivated    int // |Edac(i)|
	ActiveEdges    int // |E(i+1)|
	ActivatedAlive int // |E(i+1) \ E(1)|
}

// Metrics aggregates the paper's cost measures over a whole execution.
// The Env* counters account environment (adversary) edits separately:
// they never enter the algorithm's cost measures above.
type Metrics struct {
	Rounds              int // rounds whose edits Apply committed: a run that fails in round r before that commit reads r-1, sim.Result.Rounds r
	LastActivityRound   int // last round with any edge activation/deactivation
	TotalActivations    int // Σ|Eac(i)|
	TotalDeactivations  int // Σ|Edac(i)|
	MaxActivatedEdges   int // max_i |E(i) \ E(1)|
	MaxActivatedDegree  int // max_i deg(D(i) \ D(1))
	MaxActiveEdges      int // max_i |E(i)| (includes original edges)
	FinalActiveEdges    int
	FinalActivatedAlive int
	EnvActivations      int // edges the environment switched on
	EnvDeactivations    int // edges the environment cut
}

// History is the evolving temporal graph of one execution.
// The zero value is not usable; call NewHistory.
//
// The graphs are addressed by node ID. The dense index 0..n-1 that
// engine arrays and the RoundDelta wire format need — a node's slot,
// its rank among the IDs in ascending order — is the node table
// ids/rank, built once per Reset and held nowhere else. A History can
// be reused across executions via Reset, which reuses every internal
// buffer.
type History struct {
	initial *graph.Graph
	current *graph.Graph
	ids     []graph.ID // slot → ID, ascending
	rank    []int32    // ID → slot for IDs 0..MaxID, -1 for a non-node
	round   int        // index of the next round to apply, starting at 1

	// m accumulates the running cost measures; Metrics() completes it
	// with the two fields derived from round and the current snapshot.
	// m.FinalActivatedAlive is the running activated-alive count: the
	// measure is a count, not a set. E(i) \ E(1) is the
	// algorithm-activated edges alive ⊎ envAlive, the non-original edges
	// the environment activated that are still alive (sorted, and empty
	// on the strict path), so an edge of E(i) \ E(1) was activated by
	// the algorithm exactly when envAlive does not hold it, and the set
	// itself is a walk of current (eachActivated).
	m            Metrics
	envAlive     []graph.Edge
	activatedDeg []int // slot-indexed degree in D(i) \ D(1)

	// last is the latest round's stats (patched by ApplyEnvironment, read
	// by AppendLastDelta): the one per-round record the History keeps.
	last RoundStats

	// Environment (adversary) edit state: a second delta source beside
	// the algorithm's intents, applied at round boundaries through
	// ApplyEnvironment and accounted apart from the paper's cost
	// measures. lenient relaxes the distance-2 rule for algorithm
	// activations (a stale activation becomes a no-op instead of a
	// violation): under an adversarial underlay the precondition a node
	// observed can vanish before its intent commits, and that is the
	// environment's doing, not the algorithm's.
	lenient bool

	// lastActs/lastDeacts and lastEnvActs/lastEnvDeacts alias the
	// committed edge lists of the most recently applied round: prefixes
	// of the caller's own Apply and ApplyEnvironment arguments, which
	// both commit in place, so the History holds no per-round edit list.
	// They back AppendLastDelta, the allocation-free per-round diff
	// export the live topology stream is built on. Apply is called from
	// one goroutine (the engine's round driver), never concurrently with
	// itself; the read-only query methods stay safe to call concurrently.
	lastActs      []graph.Edge
	lastDeacts    []graph.Edge
	lastEnvActs   []graph.Edge
	lastEnvDeacts []graph.Edge

	replay [4][]graph.Edge // ApplyDelta's lists, mapped to edges
}

// RoundDelta is the compact reconfiguration record of one round: the
// committed activations and deactivations as flat slot pairs
// [a0,b0,a1,b1,...] in ascending canonical edge order. Slots are
// ascending-ID ranks (see SlotOf), so a client holding the initial
// slot-pair edge list can replay deltas round by round and reconstruct
// D(i) exactly — commit order is canonical and Apply is deterministic,
// which is what makes the per-round diff a sufficient wire format.
//
// EnvActivate/EnvDeactivate carry the environment's edits of the same
// boundary, tagged apart from the algorithm's intents; they are empty
// whenever no environment is attached. Stats is the round's accounting
// after both. A run's deltas are the run: History.ApplyDelta replays
// them, re-checking the model rules and recomputing every measure.
type RoundDelta struct {
	Round         int
	Activate      []int32
	Deactivate    []int32
	EnvActivate   []int32
	EnvDeactivate []int32
	Stats         RoundStats
}

// IntentBatch is one round's edge intents in caller order: the buffer
// the engine's contexts append into and hand to Apply, which
// canonicalizes, sorts and filters both lists in place. After Apply
// their prefixes are the round's committed delta, so the batch must not
// be refilled before the delta is read.
type IntentBatch struct {
	Activate   []graph.Edge
	Deactivate []graph.Edge
}

// NewHistory starts an execution from the initial graph Gs = D(1).
// The graph is copied; the caller keeps ownership of gs.
func NewHistory(gs *graph.Graph) *History {
	h := &History{}
	h.Reset(gs)
	return h
}

// Reset rewinds the History to round 1 of a fresh execution starting
// from gs, reusing every internal buffer (graph snapshots, node table,
// degree counters) so that engine reuse across runs performs
// no steady-state allocation.
func (h *History) Reset(gs *graph.Graph) {
	if h.initial == nil {
		h.initial = graph.New()
		h.current = graph.New()
	}
	h.initial.CopyCanonicalFrom(gs)
	h.current.CopyCanonicalFrom(gs)
	h.ids = gs.AppendNodes(h.ids)
	idRange := int(gs.MaxID()) + 1
	h.rank = slices.Grow(h.rank[:0], idRange)[:idRange]
	for u := range h.rank {
		h.rank[u] = -1
	}
	for slot, u := range h.ids {
		h.rank[u] = int32(slot)
	}
	h.round = 1
	h.m = Metrics{MaxActiveEdges: gs.NumEdges()}
	h.envAlive = h.envAlive[:0]
	h.activatedDeg = slices.Grow(h.activatedDeg[:0], len(h.ids))[:len(h.ids)]
	clear(h.activatedDeg)
	h.last = RoundStats{}
	h.lastActs, h.lastDeacts = nil, nil
	h.lastEnvActs, h.lastEnvDeacts = nil, nil
	h.lenient = false
}

// SetLenientActivation relaxes the distance-2 rule for algorithm
// activations: an activation whose common-neighbor precondition does
// not hold is silently void instead of a Violation. The engine enables
// this exactly when an environment is attached (see the field comment
// on lenient); self-loop activations remain violations either way.
func (h *History) SetLenientActivation(on bool) { h.lenient = on }

// Round returns the index of the round about to be applied (1-based).
func (h *History) Round() int { return h.round }

// NumNodes returns |V|.
func (h *History) NumNodes() int { return len(h.ids) }

// Active reports whether edge {u,v} is active at the start of the
// current round.
func (h *History) Active(u, v graph.ID) bool { return h.current.HasEdge(u, v) }

// IsOriginal reports whether {u,v} ∈ E(1).
func (h *History) IsOriginal(u, v graph.ID) bool { return h.initial.HasEdge(u, v) }

// SlotOf returns u's dense slot — its rank among the node IDs in
// ascending order — and whether u is a node; (-1, false) for any other
// ID. The node set is static for a whole execution, so slots returned
// here stay valid until the next Reset.
func (h *History) SlotOf(u graph.ID) (int, bool) {
	if uint(u) >= uint(len(h.rank)) || h.rank[u] < 0 {
		return -1, false
	}
	return int(h.rank[u]), true
}

// IDAtSlot returns the node ID occupying the given slot.
func (h *History) IDAtSlot(slot int) graph.ID { return h.ids[slot] }

// NeighborsOf returns the active neighbors N1(u) in ascending order.
func (h *History) NeighborsOf(u graph.ID) []graph.ID { return h.current.Neighbors(u) }

// InitialNeighborsOf returns u's neighbors in Gs = D(1), ascending.
func (h *History) InitialNeighborsOf(u graph.ID) []graph.ID { return h.initial.Neighbors(u) }

// InitialNeighborsView returns u's neighbors in Gs = D(1), ascending,
// as a zero-copy view of the History's internal storage. The initial
// graph never changes during an execution, so the view is stable until
// the next Reset; callers must treat it as read-only.
func (h *History) InitialNeighborsView(u graph.ID) []graph.ID {
	return h.initial.NeighborsView(u)
}

// DegreeOf returns |N1(u)|.
func (h *History) DegreeOf(u graph.ID) int { return h.current.Degree(u) }

// EachNeighborOf calls fn for every active neighbor of u in ascending
// order, stopping early if fn returns false. It performs no allocation
// and, like the other query methods, reads the snapshot E(i): a round's
// intents never show until Apply commits them.
func (h *History) EachNeighborOf(u graph.ID, fn func(v graph.ID) bool) {
	h.current.EachNeighbor(u, fn)
}

// PotentialNeighbors returns N2(u): nodes at distance exactly 2 from u
// in the current snapshot, in ascending order. The two-hop candidates
// are collected by merging the sorted adjacency lists and deduplicated
// by a sort, with no intermediate map.
func (h *History) PotentialNeighbors(u graph.ID) []graph.ID {
	var out []graph.ID
	h.current.EachNeighbor(u, func(v graph.ID) bool {
		h.current.EachNeighbor(v, func(w graph.ID) bool {
			if w != u && !h.current.HasEdge(u, w) {
				out = append(out, w)
			}
			return true
		})
		return true
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// CurrentClone returns a copy of the current snapshot D(i).
func (h *History) CurrentClone() *graph.Graph { return h.current.Clone() }

// CurrentView returns the live current snapshot D(i) for read-only
// analysis without the O(n+m) cost of CurrentClone. The returned graph
// is owned by the history: it is valid only until the next Apply or
// Reset, and callers must not mutate it or retain it.
func (h *History) CurrentView() *graph.Graph { return h.current }

// CurrentIsConnected reports whether D(i) is connected, reusing sc's
// buffers so repeated checks allocate nothing.
func (h *History) CurrentIsConnected(sc *graph.BFSScratch) bool {
	return sc.IsConnected(h.current)
}

// InitialClone returns a copy of D(1).
func (h *History) InitialClone() *graph.Graph { return h.initial.Clone() }

// ActivatedSubgraph returns D(i) \ D(1): the currently active edges
// that the execution activated (on the full node set).
func (h *History) ActivatedSubgraph() *graph.Graph {
	g := graph.New()
	for _, u := range h.ids {
		g.AddNode(u)
	}
	h.eachActivated(func(e graph.Edge) { g.MustAddEdge(e.A, e.B) })
	return g
}

// Apply executes one synchronous round of edge reconfiguration:
// E(i+1) = (E(i) ∪ Eac(i)) \ Edac(i).
//
// All intents are validated against the snapshot E(i) at the start of
// the round, exactly as the model prescribes:
//
//   - activating an already-active edge is a no-op;
//   - deactivating an inactive edge is a no-op (this also resolves the
//     "endpoints disagree" rule: the conflicting intent is necessarily
//     invalid and therefore void);
//   - activating {u,v} with no common active neighbor w is a model
//     violation and returns an error;
//   - self-loops are violations.
//
// Apply returns the per-round statistics for the completed round.
//
// Intents are validated in caller order (so the first violating edge in
// the activate slice is the one reported, as the caller wrote it), then
// applied in ascending canonical edge order: the application — and
// therefore the round's delta (AppendLastDelta) — is deterministic
// regardless of how callers ordered their intents. Apply works on its
// arguments in place: each intent is canonicalized where it lies, both
// lists are sorted, and on success their prefixes hold the round's
// committed activations and deactivations, which AppendLastDelta reads
// until the next Apply. Apply performs no allocation.
func (h *History) Apply(activate, deactivate []graph.Edge) (RoundStats, error) {
	// Validate against the frozen snapshot E(i) and canonicalize. A no-op
	// or (lenient) void activation stays in the list: under the
	// raw-request rule below it still cancels a deactivation of its edge.
	// The common-neighbour test comes first, so a legal activation asks
	// HasEdge once, in the merge.
	for i, e := range activate {
		if e.A == e.B {
			return RoundStats{}, &Violation{Round: h.round, Edge: e, Op: "activate", Why: "self-loop"}
		}
		ce := graph.NewEdge(e.A, e.B)
		if !h.lenient && !h.current.HaveCommonNeighbor(ce.A, ce.B) && !h.current.HasEdge(ce.A, ce.B) {
			return RoundStats{}, &Violation{
				Round: h.round, Edge: e, Op: "activate",
				Why: "no common active neighbor (distance-2 rule)",
			}
		}
		activate[i] = ce
	}
	for i, e := range deactivate {
		deactivate[i] = graph.NewEdge(e.A, e.B)
	}
	slices.SortFunc(activate, cmpEdge)
	slices.SortFunc(deactivate, cmpEdge)

	// One merge of the two sorted request lists, one step per distinct
	// edge. "In case u and v disagree on their decision about edge uv,
	// then their actions have no effect on uv": an edge requested both
	// activated and deactivated (necessarily by different endpoints, and
	// one request is necessarily invalid) is left untouched, judged on
	// the raw requests before no-op filtering. The committed edits are
	// written over the requests: each write index trails its read index.
	acts, deacts := activate[:0], deactivate[:0]
	for i, j := 0, 0; i < len(activate) || j < len(deactivate); {
		var e graph.Edge
		if j == len(deactivate) || i < len(activate) && cmpEdge(activate[i], deactivate[j]) <= 0 {
			e = activate[i]
		} else {
			e = deactivate[j]
		}
		i0, j0 := i, j
		for i < len(activate) && activate[i] == e {
			i++
		}
		for j < len(deactivate) && deactivate[j] == e {
			j++
		}
		switch {
		case i > i0 && j > j0:
			// disagreement: no effect
		case i > i0:
			if !h.current.HasEdge(e.A, e.B) && (!h.lenient || h.current.HaveCommonNeighbor(e.A, e.B)) {
				acts = append(acts, e) // else a no-op, or void
			}
		case h.current.HasEdge(e.A, e.B):
			deacts = append(deacts, e) // else a no-op
		}
	}

	// Apply, in ascending canonical edge order.
	for _, e := range acts {
		h.current.MustAddEdge(e.A, e.B)
		h.m.TotalActivations++
		if !h.initial.HasEdge(e.A, e.B) {
			h.m.FinalActivatedAlive++
			h.bumpActivatedDeg(e.A, +1)
			h.bumpActivatedDeg(e.B, +1)
		}
	}
	for _, e := range deacts {
		h.current.RemoveEdge(e.A, e.B)
		h.m.TotalDeactivations++
		h.dropActivated(e)
	}

	if h.m.FinalActivatedAlive > h.m.MaxActivatedEdges {
		h.m.MaxActivatedEdges = h.m.FinalActivatedAlive
	}
	if m := h.current.NumEdges(); m > h.m.MaxActiveEdges {
		h.m.MaxActiveEdges = m
	}

	if len(acts)+len(deacts) > 0 {
		h.m.LastActivityRound = h.round
	}
	h.last = RoundStats{
		Round:          h.round,
		Activated:      len(acts),
		Deactivated:    len(deacts),
		ActiveEdges:    h.current.NumEdges(),
		ActivatedAlive: h.m.FinalActivatedAlive,
	}
	h.round++

	h.lastActs, h.lastDeacts = acts, deacts
	h.lastEnvActs, h.lastEnvDeacts = nil, nil
	return h.last, nil
}

// AppendLastDelta fills d with the most recently applied round's
// committed edits as slot pairs and its statistics, reusing d's slice
// capacity. The source lists are prefixes of the slices last passed to
// Apply and ApplyEnvironment, so they are read before those slices are
// refilled — callers stream or copy d before applying another round. Before any round has been applied d is the
// empty delta for round 0.
func (h *History) AppendLastDelta(d *RoundDelta) {
	d.Round = h.round - 1
	d.Activate = h.appendSlotPairs(d.Activate[:0], h.lastActs)
	d.Deactivate = h.appendSlotPairs(d.Deactivate[:0], h.lastDeacts)
	d.EnvActivate = h.appendSlotPairs(d.EnvActivate[:0], h.lastEnvActs)
	d.EnvDeactivate = h.appendSlotPairs(d.EnvDeactivate[:0], h.lastEnvDeacts)
	d.Stats = h.last
}

// ApplyDelta replays a recorded round: its slot pairs, mapped through
// the node table, are committed with Apply, then with ApplyEnvironment
// if it carries environment edits. Replaying a run's deltas in order
// from NewHistory(gs) re-checks the model rules and recomputes every
// cost measure with the run's own accounting. A malformed delta (round
// out of order, odd-length list, a pair that is not two ascending
// slots, an illegal activation) is an error and commits nothing.
func (h *History) ApplyDelta(d RoundDelta) (RoundStats, error) {
	if d.Round != h.round {
		return RoundStats{}, fmt.Errorf("temporal: delta for round %d, want round %d", d.Round, h.round)
	}
	for i, pairs := range [...][]int32{d.Activate, d.Deactivate, d.EnvActivate, d.EnvDeactivate} {
		if len(pairs)%2 != 0 {
			return RoundStats{}, fmt.Errorf("temporal: round %d: slot-pair list of odd length %d", d.Round, len(pairs))
		}
		edges := h.replay[i][:0]
		for j := 0; j < len(pairs); j += 2 {
			a, b := pairs[j], pairs[j+1]
			if a < 0 || a >= b || int(b) >= len(h.ids) {
				return RoundStats{}, fmt.Errorf("temporal: round %d: (%d,%d) is not a pair of ascending slots in 0..%d", d.Round, a, b, len(h.ids)-1)
			}
			edges = append(edges, graph.Edge{A: h.ids[a], B: h.ids[b]})
		}
		h.replay[i] = edges
	}
	st, err := h.Apply(h.replay[0], h.replay[1])
	if err != nil || len(d.EnvActivate)+len(d.EnvDeactivate) == 0 {
		return st, err
	}
	return h.ApplyEnvironment(h.replay[2], h.replay[3])
}

// ApplyEnvironment commits environment (adversary) edits at the
// boundary after the most recently applied round: E(i+1) gains the
// activations and loses the deactivations, with no distance-2
// validation — the environment is the underlay, not a node, and is not
// bound by the model's local rules. Requests are canonicalized,
// deduplicated and filtered against the current snapshot (activating
// an active edge or deactivating an inactive one is a no-op), in place
// as Apply does, so the committed lists are prefixes of the arguments
// in ascending canonical order like the algorithm's — which keeps the
// environment-tagged delta lists deterministic. Self-loops and unknown endpoints are errors: the
// environment edits the underlay, it cannot grow the node set.
//
// Environment edits never enter the paper's cost measures (the Env*
// counters in Metrics account them separately), except that cutting an
// edge the algorithm had activated decrements the activated-alive
// count — "algorithm-activated and still active" stays an invariant of
// that measure. A non-original edge the environment adds is kept in
// envAlive and never enters the measure. The returned RoundStats are
// the completed round's, with ActiveEdges/ActivatedAlive updated to the
// post-environment snapshot (what AppendLastDelta exports is patched
// the same way).
//
// Callers attaching an environment invoke ApplyEnvironment at most once
// per round, after Apply; Apply empties the previous round's
// environment lists, so the last-delta export stays round-aligned.
func (h *History) ApplyEnvironment(activate, deactivate []graph.Edge) (RoundStats, error) {
	if h.round == 1 {
		return RoundStats{}, fmt.Errorf("temporal: ApplyEnvironment before any applied round")
	}
	round := h.round - 1
	acts := activate[:0]
	for _, e := range activate {
		if e.A == e.B {
			return RoundStats{}, fmt.Errorf("temporal: round %d: environment activation of self-loop %v", round, e)
		}
		ce := graph.NewEdge(e.A, e.B)
		if !h.current.HasNode(ce.A) || !h.current.HasNode(ce.B) {
			return RoundStats{}, fmt.Errorf("temporal: round %d: environment activation of %v: unknown endpoint", round, ce)
		}
		if h.current.HasEdge(ce.A, ce.B) {
			continue
		}
		acts = append(acts, ce)
	}
	slices.SortFunc(acts, cmpEdge)
	acts = slices.Compact(acts)
	deacts := deactivate[:0]
	for _, e := range deactivate {
		if e.A == e.B {
			return RoundStats{}, fmt.Errorf("temporal: round %d: environment deactivation of self-loop %v", round, e)
		}
		ce := graph.NewEdge(e.A, e.B)
		if !h.current.HasEdge(ce.A, ce.B) {
			continue
		}
		deacts = append(deacts, ce)
	}
	slices.SortFunc(deacts, cmpEdge)
	deacts = slices.Compact(deacts)
	// Both lists were filtered against the same pre-edit snapshot, so
	// no edge survives in both: the commits below cannot conflict.
	for _, e := range acts {
		h.current.MustAddEdge(e.A, e.B)
		h.m.EnvActivations++
		if !h.initial.HasEdge(e.A, e.B) {
			i, _ := slices.BinarySearchFunc(h.envAlive, e, cmpEdge)
			h.envAlive = slices.Insert(h.envAlive, i, e)
		}
	}
	for _, e := range deacts {
		h.current.RemoveEdge(e.A, e.B)
		h.m.EnvDeactivations++
		h.dropActivated(e)
	}
	if m := h.current.NumEdges(); m > h.m.MaxActiveEdges {
		h.m.MaxActiveEdges = m
	}
	h.lastEnvActs, h.lastEnvDeacts = acts, deacts
	h.last.ActiveEdges = h.current.NumEdges()
	h.last.ActivatedAlive = h.m.FinalActivatedAlive
	return h.last, nil
}

// dropActivated accounts the removal of edge e from E(i), by the
// algorithm or the environment: an original edge leaves the measures
// alone, an environment-activated one leaves envAlive, and any other
// was algorithm-activated.
func (h *History) dropActivated(e graph.Edge) {
	if h.initial.HasEdge(e.A, e.B) {
		return
	}
	if i, ok := slices.BinarySearchFunc(h.envAlive, e, cmpEdge); ok {
		h.envAlive = slices.Delete(h.envAlive, i, i+1)
		return
	}
	h.m.FinalActivatedAlive--
	h.bumpActivatedDeg(e.A, -1)
	h.bumpActivatedDeg(e.B, -1)
}

// AppendActivatedAlive appends the activated-alive edge set
// (D(i) \ D(1)) in ascending canonical order to dst[:0] and returns
// it. The deterministic ordering is what lets adversary schedules rank
// and cut the algorithm's own construction reproducibly.
func (h *History) AppendActivatedAlive(dst []graph.Edge) []graph.Edge {
	dst = dst[:0]
	h.eachActivated(func(e graph.Edge) { dst = append(dst, e) })
	return dst
}

// eachActivated calls fn for every algorithm-activated edge alive, in
// ascending canonical order: a walk of current's edges {u,v}, u < v,
// from the nodes with activated degree, skipping original edges and
// (merged in step, both being in canonical order) envAlive.
func (h *History) eachActivated(fn func(e graph.Edge)) {
	env := h.envAlive
	for slot, u := range h.ids {
		if h.activatedDeg[slot] == 0 {
			continue
		}
		h.current.EachNeighbor(u, func(v graph.ID) bool {
			if v < u {
				return true
			}
			e := graph.Edge{A: u, B: v}
			for len(env) > 0 && cmpEdge(env[0], e) < 0 {
				env = env[1:]
			}
			if (len(env) == 0 || env[0] != e) && !h.initial.HasEdge(u, v) {
				fn(e)
			}
			return true
		})
	}
}

// ActivatedDegreeAtSlot returns the node's degree in D(i) \ D(1) — how
// many algorithm-activated edges it currently carries.
func (h *History) ActivatedDegreeAtSlot(slot int) int {
	if slot < 0 || slot >= len(h.activatedDeg) {
		return 0
	}
	return h.activatedDeg[slot]
}

// AppendInitialEdges appends the slot-pair rendering of E(1) — every
// edge of the initial graph in ascending canonical order — to dst[:0]
// and returns it. This is the header a topology-delta subscriber needs
// once, before replaying per-round deltas.
func (h *History) AppendInitialEdges(dst []int32) []int32 {
	dst = dst[:0]
	for su, u := range h.ids {
		for _, v := range h.initial.NeighborsView(u) {
			if v > u {
				dst = append(dst, int32(su), h.rank[v])
			}
		}
	}
	return dst
}

// appendSlotPairs appends each edge's endpoint slots to dst. Edges
// are canonical (A < B) and slots are ascending-ID ranks, so
// slot(A) < slot(B) and the pair order mirrors the edge order.
func (h *History) appendSlotPairs(dst []int32, edges []graph.Edge) []int32 {
	for _, e := range edges {
		dst = append(dst, h.rank[e.A], h.rank[e.B])
	}
	return dst
}

// bumpActivatedDeg adjusts u's degree in D(i) \ D(1). u is always an
// endpoint of a validated edge, hence a node of the static set: the
// slot lookup cannot miss.
func (h *History) bumpActivatedDeg(u graph.ID, delta int) {
	s := h.rank[u]
	d := h.activatedDeg[s] + delta
	h.activatedDeg[s] = d
	if d > h.m.MaxActivatedDegree {
		h.m.MaxActivatedDegree = d
	}
}

// cmpEdge orders canonical edges lexicographically; slices.SortFunc with
// it sorts in place without allocating, unlike sort.Slice.
func cmpEdge(a, b graph.Edge) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

// Metrics returns the aggregated cost measures so far.
func (h *History) Metrics() Metrics {
	m := h.m
	m.Rounds = h.round - 1
	m.FinalActiveEdges = h.current.NumEdges()
	return m
}
