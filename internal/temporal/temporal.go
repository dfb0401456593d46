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
	Rounds              int // number of completed rounds
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
	// with the three fields derived from round and the snapshots.
	m              Metrics
	activatedAlive map[graph.Edge]struct{} // E(i) \ E(1)
	activatedDeg   []int                   // slot-indexed degree in D(i) \ D(1)

	perRound []RoundStats

	// Environment (adversary) edit state: a second delta source beside
	// the algorithm's intents, applied at round boundaries through
	// ApplyEnvironment and accounted apart from the paper's cost
	// measures. lenient relaxes the distance-2 rule for algorithm
	// activations (a stale activation becomes a no-op instead of a
	// violation): under an adversarial underlay the precondition a node
	// observed can vanish before its intent commits, and that is the
	// environment's doing, not the algorithm's.
	lenient       bool
	lastEnvActs   []graph.Edge
	lastEnvDeacts []graph.Edge

	// Scratch buffers reused across Apply calls so the round loop does
	// not allocate. Apply is called from exactly one goroutine (the
	// engine's round driver), never concurrently with itself; the
	// read-only query methods remain safe to call concurrently.
	scratchRawAct   []graph.Edge // every canonical activation request, sorted
	scratchRawDeact []graph.Edge // every canonical deactivation request, sorted
	scratchAct      []graph.Edge // validated new activations, sorted+deduped
	scratchDeact    []graph.Edge // validated deactivations, sorted+deduped

	// shards hold per-batch validation state for ApplyBatches; shard k
	// is written only by the goroutine validating batch k, so the
	// validation pass is data-race free by construction. validateFn is
	// the method value handed to the parallel runner, bound once so the
	// hot loop creates no closures.
	shards     []applyShard
	heads      []int // k-way merge cursors, one per shard
	validateFn func(k int)

	// lastActs/lastDeacts alias the committed edge lists of the most
	// recently applied round (scratch storage, overwritten by the next
	// Apply). They back AppendLastDelta, the allocation-free per-round
	// diff export the live topology stream is built on.
	lastActs   []graph.Edge
	lastDeacts []graph.Edge
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
// whenever no environment is attached. Replay applies the four lists
// in field order.
type RoundDelta struct {
	Round         int
	Activate      []int32
	Deactivate    []int32
	EnvActivate   []int32
	EnvDeactivate []int32
}

// IntentBatch is one caller's (typically one engine worker's) edge
// intents for a single round. Batches are ordered: concatenating them
// in slice order must reproduce the caller order a sequential Apply
// would have seen, which is what keeps violation reporting identical
// across worker counts.
type IntentBatch struct {
	Activate   []graph.Edge
	Deactivate []graph.Edge
}

// applyShard is the validation workspace of one IntentBatch.
type applyShard struct {
	batch     IntentBatch
	rawAct    []graph.Edge // canonical activation requests, sorted
	act       []graph.Edge // surviving activations, sorted
	rawDeact  []graph.Edge // canonical deactivation requests, sorted
	violation *Violation   // first violation in batch order, if any
}

// NewHistory starts an execution from the initial graph Gs = D(1).
// The graph is copied; the caller keeps ownership of gs.
func NewHistory(gs *graph.Graph) *History {
	h := &History{}
	h.Reset(gs)
	return h
}

// Reset rewinds the History to round 1 of a fresh execution starting
// from gs, reusing every internal buffer (graph snapshots, scratch
// slices, the per-round log) so that engine reuse across runs performs
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
	if h.activatedAlive == nil {
		h.activatedAlive = make(map[graph.Edge]struct{})
	} else {
		clear(h.activatedAlive)
	}
	h.activatedDeg = slices.Grow(h.activatedDeg[:0], len(h.ids))[:len(h.ids)]
	clear(h.activatedDeg)
	h.perRound = h.perRound[:0]
	h.lastActs = nil
	h.lastDeacts = nil
	h.lenient = false
	h.lastEnvActs = nil
	h.lastEnvDeacts = nil
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

// NeighborsInto appends u's active neighbors, ascending, to dst[:0]
// and returns it (allocation free once dst has capacity).
func (h *History) NeighborsInto(u graph.ID, dst []graph.ID) []graph.ID {
	return h.current.NeighborsInto(u, dst)
}

// EachNeighborOf calls fn for every active neighbor of u in ascending
// order, stopping early if fn returns false. It performs no allocation
// and, like the other query methods, reads the snapshot E(i), so it is
// safe to call from concurrently stepped machines.
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
	sortIDs(out)
	dedup := out[:0]
	for i, w := range out {
		if i == 0 || out[i-1] != w {
			dedup = append(dedup, w)
		}
	}
	return dedup
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
	for _, u := range h.current.Nodes() {
		g.AddNode(u)
	}
	for e := range h.activatedAlive {
		g.MustAddEdge(e.A, e.B)
	}
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
// the activate slice is the one reported), then applied in ascending
// canonical edge order: the application — and therefore the round's
// delta (AppendLastDelta) — is deterministic regardless of how callers
// ordered their intents. All scratch state is reused across rounds;
// Apply performs no steady-state allocation.
func (h *History) Apply(activate, deactivate []graph.Edge) (RoundStats, error) {
	h.ensureShards(1)
	h.shards[0].batch = IntentBatch{Activate: activate, Deactivate: deactivate}
	return h.applyShards(1, nil)
}

// ApplyBatches is Apply for intents that arrive pre-sharded, typically
// one batch per engine worker. It is observationally identical to
// calling Apply on the concatenation of the batches in slice order:
// the same RoundStats, the same committed edges in the same canonical
// order (so deltas stay byte-identical across worker counts), and the
// same first violation.
//
// When parallel is non-nil it is invoked as parallel(k, fn) and must
// call fn(0) … fn(k-1), each exactly once, on any goroutines it likes,
// returning only when all calls have finished. Validation of each
// batch is read-only against the frozen pre-round snapshot E(i) and
// touches only that batch's shard, so the fn calls are data-race free.
// The merge and commit that follow run on the calling goroutine.
func (h *History) ApplyBatches(batches []IntentBatch, parallel func(n int, fn func(k int))) (RoundStats, error) {
	k := len(batches)
	if k == 0 {
		return h.applyShards(0, nil)
	}
	h.ensureShards(k)
	for i := range batches {
		h.shards[i].batch = batches[i]
	}
	return h.applyShards(k, parallel)
}

// ensureShards sizes the shard table, retaining each shard's buffers.
func (h *History) ensureShards(k int) {
	for len(h.shards) < k {
		h.shards = append(h.shards, applyShard{})
	}
	if h.validateFn == nil {
		h.validateFn = h.validateShard
	}
}

// validateShard validates shard k's batch against the frozen snapshot
// E(i): canonicalizing requests, dropping model no-ops, recording the
// batch's first violation, and shard-locally sorting the results for
// the merge pass. It writes nothing outside its shard and only reads
// h.current, so distinct shards validate concurrently.
func (h *History) validateShard(k int) {
	sh := &h.shards[k]
	rawAct := sh.rawAct[:0]
	acts := sh.act[:0]
	sh.violation = nil
	for _, e := range sh.batch.Activate {
		if e.A == e.B {
			sh.violation = &Violation{Round: h.round, Edge: e, Op: "activate", Why: "self-loop"}
			acts = acts[:0]
			break
		}
		ce := graph.NewEdge(e.A, e.B)
		rawAct = append(rawAct, ce)
		if h.current.HasEdge(ce.A, ce.B) {
			continue // no-op per the model
		}
		if !h.current.HaveCommonNeighbor(ce.A, ce.B) {
			if h.lenient {
				continue // void: the underlay moved beneath the node
			}
			sh.violation = &Violation{
				Round: h.round, Edge: e, Op: "activate",
				Why: "no common active neighbor (distance-2 rule)",
			}
			acts = acts[:0]
			break
		}
		acts = append(acts, ce)
	}
	rawDeact := sh.rawDeact[:0]
	for _, e := range sh.batch.Deactivate {
		rawDeact = append(rawDeact, graph.NewEdge(e.A, e.B))
	}
	sortEdges(rawAct)
	sortEdges(rawDeact)
	sortEdges(acts)
	sh.rawAct, sh.act, sh.rawDeact = rawAct, acts, rawDeact
}

// applyShards validates the first k shards (in parallel when a runner
// is supplied), merges the shard results into canonical order, and
// commits the round.
func (h *History) applyShards(k int, parallel func(n int, fn func(k int))) (RoundStats, error) {
	if parallel != nil && k > 1 {
		parallel(k, h.validateFn)
	} else {
		for i := 0; i < k; i++ {
			h.validateShard(i)
		}
	}
	// Batches are in caller order, so the first violation of the
	// lowest-index violating shard is exactly the violation a
	// sequential validation of the concatenated intents would report.
	for i := 0; i < k; i++ {
		if v := h.shards[i].violation; v != nil {
			return RoundStats{}, v
		}
	}

	var rawAct, rawDeact, acts []graph.Edge
	if k == 1 {
		// Single batch: the shard buffers are already sorted wholes.
		sh := &h.shards[0]
		rawAct, rawDeact = sh.rawAct, sh.rawDeact
		acts = dedupeEdges(sh.act)
		sh.act = acts
	} else {
		rawAct = h.mergeShards(h.scratchRawAct, k, func(sh *applyShard) []graph.Edge { return sh.rawAct }, false)
		h.scratchRawAct = rawAct
		rawDeact = h.mergeShards(h.scratchRawDeact, k, func(sh *applyShard) []graph.Edge { return sh.rawDeact }, false)
		h.scratchRawDeact = rawDeact
		acts = h.mergeShards(h.scratchAct, k, func(sh *applyShard) []graph.Edge { return sh.act }, true)
		h.scratchAct = acts
	}

	// "In case u and v disagree on their decision about edge uv, then
	// their actions have no effect on uv": an edge that is requested
	// both activated and deactivated in the same round (necessarily by
	// different endpoints, and one request is necessarily invalid) is
	// left untouched. The disagreement check uses the raw requests,
	// before no-op filtering.
	kept := acts[:0]
	for _, e := range acts {
		if !containsEdge(rawDeact, e) {
			kept = append(kept, e)
		}
	}
	acts = kept

	deacts := h.scratchDeact[:0]
	for i, e := range rawDeact {
		if i > 0 && rawDeact[i-1] == e {
			continue // duplicate request
		}
		if containsEdge(rawAct, e) {
			continue // disagreement: no effect
		}
		if !h.current.HasEdge(e.A, e.B) {
			continue // no-op per the model
		}
		deacts = append(deacts, e)
	}

	// Apply, in ascending canonical edge order.
	for _, e := range acts {
		h.current.MustAddEdge(e.A, e.B)
		h.m.TotalActivations++
		if !h.initial.HasEdge(e.A, e.B) {
			h.activatedAlive[e] = struct{}{}
			h.bumpActivatedDeg(e.A, +1)
			h.bumpActivatedDeg(e.B, +1)
		}
	}
	for _, e := range deacts {
		h.current.RemoveEdge(e.A, e.B)
		h.m.TotalDeactivations++
		if _, ok := h.activatedAlive[e]; ok {
			delete(h.activatedAlive, e)
			h.bumpActivatedDeg(e.A, -1)
			h.bumpActivatedDeg(e.B, -1)
		}
	}

	if n := len(h.activatedAlive); n > h.m.MaxActivatedEdges {
		h.m.MaxActivatedEdges = n
	}
	if m := h.current.NumEdges(); m > h.m.MaxActiveEdges {
		h.m.MaxActiveEdges = m
	}

	if len(acts)+len(deacts) > 0 {
		h.m.LastActivityRound = h.round
	}
	stats := RoundStats{
		Round:          h.round,
		Activated:      len(acts),
		Deactivated:    len(deacts),
		ActiveEdges:    h.current.NumEdges(),
		ActivatedAlive: len(h.activatedAlive),
	}
	h.perRound = append(h.perRound, stats)
	h.round++

	// Hand the (possibly regrown) backing array back for the next
	// round; the raw/act buffers live in the shards (k == 1) or were
	// already handed back by mergeShards (k > 1).
	h.scratchDeact = deacts
	h.lastActs, h.lastDeacts = acts, deacts
	return stats, nil
}

// AppendLastDelta fills d with the most recently applied round's
// committed activations and deactivations as slot pairs, reusing d's
// slice capacity. The source lists are the History's scratch buffers,
// overwritten by the next Apply — callers stream or copy d before
// applying another round. Before any round has been applied d is the
// empty delta for round 0.
func (h *History) AppendLastDelta(d *RoundDelta) {
	d.Round = h.round - 1
	d.Activate = h.appendSlotPairs(d.Activate[:0], h.lastActs)
	d.Deactivate = h.appendSlotPairs(d.Deactivate[:0], h.lastDeacts)
	d.EnvActivate = h.appendSlotPairs(d.EnvActivate[:0], h.lastEnvActs)
	d.EnvDeactivate = h.appendSlotPairs(d.EnvDeactivate[:0], h.lastEnvDeacts)
}

// ApplyEnvironment commits environment (adversary) edits at the
// boundary after the most recently applied round: E(i+1) gains the
// activations and loses the deactivations, with no distance-2
// validation — the environment is the underlay, not a node, and is not
// bound by the model's local rules. Requests are canonicalized,
// deduplicated and filtered against the current snapshot (activating
// an active edge or deactivating an inactive one is a no-op), so the
// committed lists are in ascending canonical order like the
// algorithm's — which keeps the environment-tagged delta lists
// deterministic. Self-loops and unknown endpoints are errors: the
// environment edits the underlay, it cannot grow the node set.
//
// Environment edits never enter the paper's cost measures (the Env*
// counters in Metrics account them separately), except that cutting an
// edge the algorithm had activated removes it from the activated-alive
// set — "algorithm-activated and still active" stays an invariant of
// that measure. The returned RoundStats are the completed round's,
// with ActiveEdges/ActivatedAlive updated to the post-environment
// snapshot (the per-round log entry is patched the same way).
//
// Callers attaching an environment invoke ApplyEnvironment once per
// round, after Apply/ApplyBatches, with possibly empty lists: the
// last-delta export (AppendLastDelta) stays round-aligned that way.
func (h *History) ApplyEnvironment(activate, deactivate []graph.Edge) (RoundStats, error) {
	if len(h.perRound) == 0 {
		return RoundStats{}, fmt.Errorf("temporal: ApplyEnvironment before any applied round")
	}
	round := h.round - 1
	acts := h.lastEnvActs[:0]
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
	sortEdges(acts)
	acts = dedupeEdges(acts)
	deacts := h.lastEnvDeacts[:0]
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
	sortEdges(deacts)
	deacts = dedupeEdges(deacts)
	// Both lists were filtered against the same pre-edit snapshot, so
	// no edge survives in both: the commits below cannot conflict.
	for _, e := range acts {
		h.current.MustAddEdge(e.A, e.B)
		h.m.EnvActivations++
	}
	for _, e := range deacts {
		h.current.RemoveEdge(e.A, e.B)
		h.m.EnvDeactivations++
		if _, ok := h.activatedAlive[e]; ok {
			delete(h.activatedAlive, e)
			h.bumpActivatedDeg(e.A, -1)
			h.bumpActivatedDeg(e.B, -1)
		}
	}
	if m := h.current.NumEdges(); m > h.m.MaxActiveEdges {
		h.m.MaxActiveEdges = m
	}
	h.lastEnvActs, h.lastEnvDeacts = acts, deacts
	st := &h.perRound[len(h.perRound)-1]
	st.ActiveEdges = h.current.NumEdges()
	st.ActivatedAlive = len(h.activatedAlive)
	return *st, nil
}

// AppendActivatedAlive appends the activated-alive edge set
// (D(i) \ D(1)) in ascending canonical order to dst[:0] and returns
// it. The deterministic ordering is what lets adversary schedules rank
// and cut the algorithm's own construction reproducibly.
func (h *History) AppendActivatedAlive(dst []graph.Edge) []graph.Edge {
	dst = dst[:0]
	for e := range h.activatedAlive {
		dst = append(dst, e)
	}
	sortEdges(dst)
	return dst
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

// mergeShards k-way merges one sorted edge list per shard (selected by
// sel) into dst[:0], optionally dropping duplicates, and returns it.
// Shard lists are individually sorted by validateShard, so the merge
// yields the same ascending canonical order a global sort of the
// concatenated input would — without re-sorting on the round driver.
func (h *History) mergeShards(dst []graph.Edge, k int, sel func(*applyShard) []graph.Edge, dedupe bool) []graph.Edge {
	dst = dst[:0]
	if cap(h.heads) < k {
		h.heads = make([]int, k)
	}
	heads := h.heads[:k]
	for i := range heads {
		heads[i] = 0
	}
	for {
		best := -1
		var bestEdge graph.Edge
		for i := 0; i < k; i++ {
			list := sel(&h.shards[i])
			if heads[i] >= len(list) {
				continue
			}
			e := list[heads[i]]
			if best < 0 || cmpEdge(e, bestEdge) < 0 {
				best, bestEdge = i, e
			}
		}
		if best < 0 {
			return dst
		}
		heads[best]++
		if dedupe && len(dst) > 0 && dst[len(dst)-1] == bestEdge {
			continue
		}
		dst = append(dst, bestEdge)
	}
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

// cmpEdge orders canonical edges lexicographically.
func cmpEdge(a, b graph.Edge) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

// sortEdges sorts in place without allocating (unlike sort.Slice,
// whose reflect-based swapper costs an allocation per call — which at
// three calls per round was a measurable slice of the hot loop).
func sortEdges(es []graph.Edge) {
	slices.SortFunc(es, cmpEdge)
}

// dedupeEdges removes adjacent duplicates from a sorted slice, in place.
func dedupeEdges(es []graph.Edge) []graph.Edge {
	out := es[:0]
	for i, e := range es {
		if i == 0 || es[i-1] != e {
			out = append(out, e)
		}
	}
	return out
}

// containsEdge reports whether the sorted slice es contains e.
func containsEdge(es []graph.Edge, e graph.Edge) bool {
	_, ok := slices.BinarySearchFunc(es, e, cmpEdge)
	return ok
}

// Metrics returns the aggregated cost measures so far.
func (h *History) Metrics() Metrics {
	m := h.m
	m.Rounds = h.round - 1
	m.FinalActiveEdges = h.current.NumEdges()
	m.FinalActivatedAlive = len(h.activatedAlive)
	return m
}

// PerRound returns the per-round statistics (copy).
func (h *History) PerRound() []RoundStats {
	out := make([]RoundStats, len(h.perRound))
	copy(out, h.perRound)
	return out
}

func sortIDs(ids []graph.ID) {
	slices.Sort(ids)
}
