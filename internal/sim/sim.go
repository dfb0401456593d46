// Package sim is the synchronous message-passing engine for actively
// dynamic networks (paper §2.1). Each round executes, in lock step:
// Send → Receive → Activate → Deactivate → Update. Nodes are state
// machines implementing Machine; the engine delivers messages over the
// current active edge set, arbitrates edge intents through
// temporal.History (which enforces the distance-2 rule and tracks the
// edge-complexity measures), and detects termination.
//
// One goroutine steps a run: nodes in ascending ID order, their intents
// collected in that order and committed together by History.Apply, so
// an execution is a deterministic function of its inputs. The reusable
// execution core lives in Engine (engine.go); Run is its single-use
// wrapper.
package sim

import (
	"errors"
	"time"

	"adnet/internal/graph"
	"adnet/internal/temporal"
)

// Status is a node's self-declared leader-election outcome (§2.2).
type Status int

// Node statuses. StatusNone is the pre-decision default.
const (
	StatusNone Status = iota
	StatusFollower
	StatusLeader
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusFollower:
		return "follower"
	case StatusLeader:
		return "leader"
	default:
		return "none"
	}
}

// Message is a point-to-point message delivered within the round it is
// sent. Payloads are algorithm-defined values; they are never copied or
// encoded, matching the model's unbounded local communication.
type Message struct {
	From    graph.ID
	To      graph.ID
	Payload any
}

// Machine is a node program. Implementations must confine themselves to
// their own state plus the Context: a machine reading another node's
// state would see it mid-round, which the model does not allow.
//
// The engine calls Send and Receive once per round each, unless the
// machine has promised through ctx.SkipUntil that a call would do
// nothing; a Receive with a non-empty inbox is always made.
type Machine interface {
	// Init runs once before round 1; the context exposes the node's
	// initial neighborhood. Messages sent here are dropped.
	Init(ctx *Context)
	// Send runs at the start of each round; the machine sends to
	// current neighbors via ctx.Send, which checks the destination
	// against E(i), or ctx.Broadcast, which walks the node's own row
	// of E(i). Both deliver into the receivers' inboxes for this
	// round's Receive.
	Send(ctx *Context)
	// Receive runs after every node's Send, with this round's inbox
	// sorted by sender. Edge intents (ctx.Activate/ctx.Deactivate),
	// status changes and local state updates belong here; messages
	// sent here are dropped.
	Receive(ctx *Context, inbox []Message)
}

// Factory builds the machine for one node. It receives the node's ID
// and the public model constants.
type Factory func(id graph.ID, env Env) Machine

// Recycler is an optional Machine extension for allocation-free reuse
// across runs. Recycle must restore the machine to exactly the state
// its factory would produce for (id, env), retaining internal capacity
// (maps, slices) instead of reallocating. Only machines whose
// factory-fresh state is a pure function of (id, env) — no captured
// per-run options — may implement it; the engine recycles machines
// only when the caller opts in via WithMachineRecycling.
type Recycler interface {
	Machine
	Recycle(id graph.ID, env Env)
}

// Env carries the model constants every node is granted by the paper:
// n (known to all nodes in §5; harmless elsewhere — machines that must
// not rely on it simply ignore it).
type Env struct {
	N int
}

// ErrRoundLimit is returned when the round limit is hit before every
// node halted.
var ErrRoundLimit = errors.New("sim: round limit exceeded before termination")

// ErrDisconnected is returned by the optional connectivity check.
var ErrDisconnected = errors.New("sim: active graph disconnected")

// ErrCanceled is returned when an execution is aborted between rounds
// via WithCancel.
var ErrCanceled = errors.New("sim: execution canceled")

// RoundEvent is passed to round hooks after each completed round. A
// round's edits and statistics are its temporal.RoundDelta (WithDeltaHook).
type RoundEvent struct {
	Round int
	// Messages holds all messages delivered this round, sender-sorted
	// per recipient. The slice's backing array is reused by the engine
	// on the next round: hooks that retain messages must copy them.
	Messages []Message
}

// StartEvent is passed to start hooks after the Init phase, before
// round 1: the static node count and the initial active edge set E(1)
// as flat slot pairs in ascending canonical order. The Edges slice is
// engine scratch — hooks that retain it must copy.
type StartEvent struct {
	N     int
	Edges []int32
}

// EnvEdits is one round boundary's batch of environment effects,
// filled by Environment.Perturb. Edge lists need not be canonical or
// deduplicated (temporal.History.ApplyEnvironment normalizes them);
// Crash/Restart name node slots. Restarts are processed before
// crashes, and Reboot selects the restart semantics for this boundary:
// true rebuilds each restarted machine from the factory and re-runs
// Init ("reboot"), false resumes it with its state intact ("sleep").
// The struct is engine scratch, reset before every Perturb call —
// implementations append and must not retain the slices.
type EnvEdits struct {
	Activate   []graph.Edge
	Deactivate []graph.Edge
	Crash      []int32
	Restart    []int32
	Reboot     bool
}

// Reset empties the edit lists for reuse, keeping capacity.
func (e *EnvEdits) Reset() {
	e.Activate = e.Activate[:0]
	e.Deactivate = e.Deactivate[:0]
	e.Crash = e.Crash[:0]
	e.Restart = e.Restart[:0]
	e.Reboot = false
}

// Environment is an adversarial or passively-dynamic underlay: a
// perturbation source the engine consults once per round, at the
// boundary after the algorithm's intents committed and before the
// next Send phase. Implementations must be deterministic functions of
// their own seeded state and the History they are shown — the engine
// calls Perturb once per round, in round order, so executions stay
// byte-identical from run to run. The engine applies the edits and
// counts the crashes and restarts it applied (Result.Crashes,
// Result.Restarts). Each internal/dynamics class is one, built by
// dynamics.New.
type Environment interface {
	// Begin binds the environment to a run of n nodes; the engine
	// calls it from Reset, before any Perturb. A seeded environment
	// reseeds here, so one value used for several runs perturbs each
	// the same way.
	Begin(n int)
	// Perturb appends this boundary's effects to edits. round is the
	// round that just completed (1-based). hist exposes the post-round
	// snapshot read-only; implementations must not call its mutating
	// methods.
	Perturb(round int, hist *temporal.History, edits *EnvEdits)
}

type config struct {
	maxRounds    int
	checkConnect bool
	hooks        []func(RoundEvent)
	startHooks   []func(StartEvent)
	deltaHooks   []func(temporal.RoundDelta)
	done         <-chan struct{}
	observer     func(RunSummary)
	recycle      string
	env          Environment
}

// Option configures Run.
type Option func(*config)

// WithMaxRounds caps the execution length (default 64·n + 64 rounds).
func WithMaxRounds(r int) Option { return func(c *config) { c.maxRounds = r } }

// WithParallelism has no effect: one goroutine steps every run, and
// parallelism comes from one engine per core (expt.Runner,
// expt.ExecuteSweep). It exists only until the benchmark harness stops
// naming it (ROADMAP item 6(a)).
func WithParallelism(int) Option { return func(*config) {} }

// WithConnectivityCheck asserts after every round that the active graph
// is connected, aborting with ErrDisconnected otherwise. The paper's
// algorithms never break connectivity; this is the failure-injection
// switch for tests.
func WithConnectivityCheck() Option { return func(c *config) { c.checkConnect = true } }

// WithRoundHook registers a callback invoked after every round with the
// delivered messages, for message observers such as the lower-bound
// instrumentation in internal/bounds. Registering one makes the engine
// copy every delivered message each round.
func WithRoundHook(fn func(RoundEvent)) Option {
	return func(c *config) { c.hooks = append(c.hooks, fn) }
}

// WithStartHook registers a callback invoked once per run, after Init
// and before round 1, with the node count and the initial edge set as
// slot pairs. Together with WithDeltaHook it gives stream producers
// everything a remote client needs to reconstruct D(i) live.
func WithStartHook(fn func(StartEvent)) Option {
	return func(c *config) { c.startHooks = append(c.startHooks, fn) }
}

// WithDeltaHook registers a callback invoked after every round with
// that round's record (temporal.RoundDelta): the committed edits as
// slot pairs and the round's statistics. The delta's slices are History
// scratch reused on the next round: hooks that retain them must copy.
// The conversion runs only when at least one delta hook is registered,
// so the plain round loop stays untouched.
func WithDeltaHook(fn func(temporal.RoundDelta)) Option {
	return func(c *config) { c.deltaHooks = append(c.deltaHooks, fn) }
}

// WithEnvironment attaches an adversarial/passively-dynamic underlay
// to the run: after every round's intents commit, env.Perturb may flip
// edges (injected into the History as a distinct, separately-tagged
// delta source) and crash or restart nodes. A crashed slot's machine
// is not stepped, its outgoing messages are suppressed and messages
// addressed to it are dropped, until its restart boundary.
//
// Attaching an environment also relaxes two model rules that assume
// the algorithm alone edits edges: a message sent over an edge the
// environment has since cut is lost (not a non-neighbor-send error),
// and an activation whose distance-2 precondition the environment
// invalidated is void (not a Violation) — the algorithm did nothing
// wrong in either case. With no environment attached the strict
// semantics and the zero-allocation round loop are unchanged.
func WithEnvironment(env Environment) Option {
	return func(c *config) { c.env = env }
}

// WithCancel aborts the execution before the next round once done is
// closed, returning the partial Result alongside ErrCanceled. This is
// how callers impose deadlines or user-initiated cancellation on a
// running simulation (e.g. context.Context.Done from a server job).
func WithCancel(done <-chan struct{}) Option {
	return func(c *config) { c.done = done }
}

// RunSummary is the once-per-run digest handed to a run observer when
// an execution finishes (successfully or not).
type RunSummary struct {
	// Rounds is the number of completed rounds.
	Rounds int
	// Duration is the wall-clock time of the round loop (Run entry to
	// finish), excluding Reset.
	Duration time.Duration
	// TotalMessages counts every delivered message across the run.
	TotalMessages int
}

// ParallelEfficiency is 1 for a measured run (Duration > 0) and 0
// otherwise: the run's one goroutine never idles. Like WithParallelism
// it exists only until the benchmark harness stops reading it.
func (s RunSummary) ParallelEfficiency() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return 1
}

// WithRunObserver registers fn to be called exactly once when the run
// finishes, with the run's round count, wall-clock duration and
// message total. This is the engine's metrics hook: folding the
// digest in after the loop keeps the per-round hot path free of
// instrumentation (and of allocations — the *SteadyStateZeroAllocs
// tests in internal/expt pin it). fn runs on the engine's goroutine;
// keep it cheap.
func WithRunObserver(fn func(RunSummary)) Option {
	return func(c *config) { c.observer = fn }
}

// WithMachineRecycling lets the engine restore machines in place
// (via the Recycler interface) instead of rebuilding them, when the
// previous Reset used the same non-empty key and every machine from
// that run implements Recycler. The key names the algorithm; callers
// must change it whenever they change the factory. This is what takes
// repeated same-algorithm runs (sweeps, benchmarks) to zero
// steady-state allocations.
func WithMachineRecycling(key string) Option {
	return func(c *config) { c.recycle = key }
}

// Result is the outcome of an execution. Beyond the totals it is a
// view, not a copy: History is the engine's, and the per-node answers
// (Status, Machine, Leader, Nodes) read the engine's slot arrays. It is
// valid until the engine's next Reset — closing the engine does not
// invalidate it, so a Result from Run stays readable.
type Result struct {
	History *temporal.History
	Metrics temporal.Metrics
	Rounds  int
	// TotalMessages counts every delivered point-to-point message; the
	// paper does not bound communication (unlike the overlay-network
	// models of §1.4), but the measure makes the comparison concrete.
	TotalMessages int
	// MaxMessagesPerRound is the peak per-round message volume.
	MaxMessagesPerRound int
	// Crashes and Restarts count the crashes and restarts the engine
	// applied from the environment's edits (zero without
	// WithEnvironment); a failed run's partial Result carries them too.
	Crashes, Restarts int

	eng *Engine
}

// Node is one node's final state as Result.Nodes yields it.
type Node struct {
	ID      graph.ID
	Status  Status
	Machine Machine
}

// Nodes yields every node in ascending ID (= slot) order; it is a
// range-over-func iterator: for nd := range res.Nodes { … }.
func (r *Result) Nodes(yield func(Node) bool) {
	e := r.eng
	for i := 0; i < e.n; i++ {
		if !yield(Node{ID: e.ctxs[i].id, Status: e.ctxs[i].status, Machine: e.machines[i]}) {
			return
		}
	}
}

// Status returns node id's self-declared status; ok is false when id
// is not a node of the execution.
func (r *Result) Status(id graph.ID) (s Status, ok bool) {
	slot, ok := r.History.SlotOf(id)
	if !ok {
		return StatusNone, false
	}
	return r.eng.ctxs[slot].status, true
}

// Machine returns node id's machine in its final state; ok is false
// when id is not a node of the execution.
func (r *Result) Machine(id graph.ID) (m Machine, ok bool) {
	slot, ok := r.History.SlotOf(id)
	if !ok {
		return nil, false
	}
	return r.eng.machines[slot], true
}

// Leader returns the unique node with StatusLeader, or (-1, false) if
// there is not exactly one.
func (r *Result) Leader() (graph.ID, bool) {
	leader, count := graph.ID(-1), 0
	for nd := range r.Nodes {
		if nd.Status == StatusLeader {
			leader = nd.ID
			count++
		}
	}
	if count != 1 {
		return -1, false
	}
	return leader, true
}

// Run executes the distributed algorithm produced by factory on the
// initial graph gs until every node halts or the round limit is hit.
// It is a thin wrapper over a single-use Engine; callers executing
// many runs should hold an Engine and Reset it between runs to reuse
// its buffers.
//
// On a runtime failure (model violation, round limit, connectivity
// check) Run returns the partial Result alongside the error so callers
// can post-mortem the history; on setup errors the Result is nil.
func Run(gs *graph.Graph, factory Factory, opts ...Option) (*Result, error) {
	e := NewEngine()
	defer e.Close()
	if err := e.Reset(gs, factory, opts...); err != nil {
		return nil, err
	}
	return e.Run()
}
