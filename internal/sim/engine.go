package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"adnet/internal/graph"
	"adnet/internal/temporal"
)

// Engine is a reusable execution core: one engine runs many
// simulations back to back, reusing its contexts, inboxes, intent
// buffer and temporal.History scratch across runs. The lifecycle is
//
//	e := NewEngine()
//	defer e.Close()
//	for each run {
//		e.Reset(gs, factory, opts...)   // rebind to a new execution
//		res, err := e.Run()             // execute it to completion
//	}
//
// Reset may change the graph, the size, the factory and the options
// freely between runs. Run consumes the Reset: calling Run twice
// without a Reset in between is an error.
//
// Ownership: the *Result returned by Run is a view of the engine (its
// History, its slot arrays); it survives Close and is valid until the
// next Reset, so callers that keep results across runs must extract
// what they need (clones, Metrics, statuses) before
// resetting. Engines are not safe for concurrent use; run one engine
// per goroutine (see expt.ExecuteSweep for the fleet pattern).
//
// Internally the engine's own state is slot-addressed: node slots are
// ascending-ID ranks 0..n-1 (the History holds the run's one ID↔slot
// table), contexts and machines live in slot-indexed slices, and
// Context.Send resolves its destination to a slot and appends to that
// slot's inbox — no ID→index hash map exists. One goroutine steps a
// run: slots in ascending order, every context appending its messages
// straight into the inboxes (so each inbox is sender-sorted) and its
// edge intents straight into the engine's one batch (in exactly the
// order History.Apply validates). Parallelism lives above the engine —
// one engine per core (expt.Runner).
type Engine struct {
	cfg config

	hist      *temporal.History
	ctxs      []Context
	machines  []Machine
	inboxes   [][]Message
	delivered []Message

	// batch is the round's intent buffer: every context appends into it
	// (Context.batch) and History.Apply commits it in place, leaving the
	// round's delta in its prefixes until the next Send phase empties it.
	batch temporal.IntentBatch

	curRound int // the round being stepped, for protect's error

	// Send-phase state, read and written by Context.Send: sending is
	// true only while the Send loop runs (a Send from Init or Receive is
	// dropped), roundMsgs counts the round's delivered messages and
	// sendErr holds its first non-neighbor send.
	sending   bool
	roundMsgs int
	sendErr   *Failure

	// wake is each slot's next needed call as a position 2·round+phase
	// (phase 0 Send, 1 Receive), declared by Context.SkipUntil; 0 means
	// none. Dense so that the Send and Receive loops skip a slot without
	// touching its context or machine.
	wake []int32

	bfs graph.BFSScratch // connectivity checks without per-call allocation
	res Result           // what Run returns a pointer to; see Ownership above

	// delta and initSlots are the scratch behind WithDeltaHook /
	// WithStartHook: filled only when hooks are registered, reused
	// across rounds and runs.
	delta     temporal.RoundDelta
	initSlots []int32

	// Machine recycling (WithMachineRecycling): the key and size of the
	// previous run, used to decide whether machines can be Recycled in
	// place instead of rebuilt.
	lastRecycle string
	lastN       int

	// Environment state (WithEnvironment): the retained factory rebuilds
	// machines on reboot-restarts, crashed marks down slots, and
	// downCount gates every crash check so the env-absent hot loop pays
	// one integer compare. envEdits is the reused Perturb scratch;
	// crashes and restarts count the faults applyFaults applied.
	factory   Factory
	crashed   []bool
	downCount int
	envEdits  EnvEdits
	crashes   int
	restarts  int

	n        int
	ready    bool // a successful Reset has not yet been consumed by Run
	runStart time.Time
}

// NewEngine returns an idle engine.
func NewEngine() *Engine { return &Engine{} }

// Close ends the engine's pending Reset. The engine holds no goroutine
// or other resource to release, and may be Reset and reused after
// Close; the method stays so callers can keep their deferred Close.
func (e *Engine) Close() {
	e.ready = false
}

// BFS returns the breadth-first-search scratch that Reset and the
// connectivity check use. Between runs the engine does not: a caller
// measuring a finished run's graphs borrows it, instead of holding a
// second one, until its next Reset.
func (e *Engine) BFS() *graph.BFSScratch { return &e.bfs }

// Reset rebinds the engine to a fresh execution of the algorithm
// produced by factory on the initial graph gs. All per-run state from
// the previous execution is recycled; previously returned Results
// become invalid. Machines are rebuilt (they carry algorithm state)
// unless WithMachineRecycling applies, in which case they are restored
// in place; everything else is reused.
func (e *Engine) Reset(gs *graph.Graph, factory Factory, opts ...Option) error {
	e.ready = false
	prevRecycle, prevN := e.lastRecycle, e.lastN
	e.lastRecycle = "" // a failed Reset must not leave stale machines recyclable
	if gs == nil || gs.NumNodes() == 0 {
		return errors.New("sim: empty initial graph")
	}
	n := gs.NumNodes()
	if !e.bfs.IsConnected(gs) {
		return errors.New("sim: initial graph must be connected")
	}
	// Options are applied straight into the engine-owned config: taking
	// the address of a local would force it to escape and cost one heap
	// allocation per Reset.
	e.cfg = config{maxRounds: 64*n + 64}
	for _, o := range opts {
		o(&e.cfg)
	}
	cfg := &e.cfg
	e.n = n

	if e.hist == nil {
		e.hist = temporal.NewHistory(gs)
	} else {
		e.hist.Reset(gs)
	}

	// Contexts and machines, slot-indexed. Context structs are reused.
	// Machines are algorithm state: rebuilt per run, except that when
	// the caller vouches (via a matching recycle key) that the factory
	// is the same algorithm as last run and the previous machines can
	// restore themselves, they are Recycled in place — the difference
	// between a handful of allocations per run and none.
	e.ctxs = grow(e.ctxs, n)
	e.machines = grow(e.machines, n)
	env := Env{N: n}
	recycle := cfg.recycle != "" && cfg.recycle == prevRecycle
	if recycle {
		for i := 0; i < prevN && i < n; i++ {
			if _, ok := e.machines[i].(Recycler); !ok {
				recycle = false
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		id := e.hist.IDAtSlot(i)
		e.ctxs[i].reset(id)
		e.ctxs[i].slot, e.ctxs[i].eng = int32(i), e
		if recycle && i < prevN {
			e.machines[i].(Recycler).Recycle(id, env)
			continue
		}
		m := factory(id, env)
		if m == nil {
			return fmt.Errorf("sim: factory returned nil machine for node %d", id)
		}
		e.machines[i] = m
	}
	// When the run shrank, scrub the machine tail beyond n too: slots
	// past the new size would otherwise pin the previous run's machines
	// through the slice's backing array.
	machineTail := e.machines[n:cap(e.machines)]
	for i := range machineTail {
		machineTail[i] = nil
	}

	// Inboxes keep their backing arrays; stale Messages are cleared so
	// payloads from earlier runs do not stay reachable.
	e.inboxes = grow(e.inboxes, n)
	inboxAll := e.inboxes[:cap(e.inboxes)]
	for i := range inboxAll {
		clearMessages(inboxAll[i][:cap(inboxAll[i])])
		inboxAll[i] = inboxAll[i][:0]
	}
	clearMessages(e.delivered[:cap(e.delivered)])
	e.delivered = e.delivered[:0]
	e.wake = grow(e.wake, n)
	clear(e.wake)

	e.factory = factory
	e.downCount = 0
	e.crashes, e.restarts = 0, 0
	if cfg.env != nil {
		// Crash tracking and the relaxed delivery/validation semantics
		// exist only on the environment path; without an environment the
		// round loop is byte-for-byte the strict, zero-alloc one.
		if cap(e.crashed) < n {
			e.crashed = make([]bool, n)
		} else {
			e.crashed = e.crashed[:n]
			clear(e.crashed)
		}
		e.hist.SetLenientActivation(true)
		cfg.env.Begin(n)
	}
	e.lastRecycle = cfg.recycle
	e.lastN = n
	e.ready = true
	return nil
}

// errNotReset is Run's answer when no successful Reset precedes it.
var errNotReset = errors.New("sim: Engine.Run requires a successful Reset first")

// Run executes the round loop prepared by the last Reset until every
// node halts, the round limit is hit, or a failure aborts the
// execution. On a runtime failure Run returns the partial Result
// alongside a *Failure.
func (e *Engine) Run() (*Result, error) {
	if !e.ready {
		return nil, errNotReset
	}
	e.ready = false
	cfg := &e.cfg
	if cfg.observer != nil {
		e.runStart = time.Now()
	}
	n := e.n
	hist := e.hist
	ctxs := e.ctxs[:n]
	machines := e.machines[:n]
	inboxes := e.inboxes[:n]
	batch := &e.batch

	// Init phase. failed notes, as the steps run, that some slot
	// recorded an error, so the O(n) ctxErr scan runs only on the way
	// out; an Init error surfaces after round 1's Send.
	failed := false
	for i := range machines {
		ctxs[i].round = 0
		machines[i].Init(&ctxs[i])
		failed = failed || ctxs[i].err != nil
	}
	if len(cfg.startHooks) > 0 {
		e.initSlots = hist.AppendInitialEdges(e.initSlots)
		for _, hook := range cfg.startHooks {
			hook(StartEvent{N: n, Edges: e.initSlots})
		}
	}

	wake := e.wake[:n]
	totalMsgs, maxMsgs := 0, 0
	for round := 1; round <= cfg.maxRounds; round++ {
		if cfg.done != nil {
			select {
			case <-cfg.done:
				return e.finish(round-1, totalMsgs, maxMsgs), &Failure{Kind: Canceled, Round: round - 1}
			default:
			}
		}
		// --- Send, which delivers: every inbox is empty here and
		// Context.Send appends to the destination's. Senders step in
		// ascending slot (= ascending ID) order and each keeps its
		// queueing order, so every inbox is sender-sorted. ---
		// The batch is emptied first: that drops what an Init (run's or
		// reboot's) issued.
		batch.Activate, batch.Deactivate = batch.Activate[:0], batch.Deactivate[:0]
		e.curRound = round
		e.roundMsgs, e.sendErr = 0, nil
		e.sending = true
		sendPos, recvPos := position(round, false), position(round, true)
		for i := range ctxs {
			if wake[i] > sendPos {
				continue // a declared no-op
			}
			e.send(i)
			failed = failed || ctxs[i].err != nil
		}
		e.sending = false
		if failed {
			return e.finish(round, totalMsgs, maxMsgs), e.ctxErr()
		}
		if e.sendErr != nil {
			return e.finish(round, totalMsgs, maxMsgs), e.sendErr
		}
		totalMsgs += e.roundMsgs
		if e.roundMsgs > maxMsgs {
			maxMsgs = e.roundMsgs
		}
		if len(cfg.hooks) > 0 {
			e.delivered = e.delivered[:0]
			for i := range inboxes {
				e.delivered = append(e.delivered, inboxes[i]...)
			}
		}

		// --- Receive + intents, appended to the round's batch after
		// any the Send phase issued. A slot with mail is always called;
		// each inbox is emptied once its Receive has run. ---
		for i := range ctxs {
			if wake[i] > recvPos && len(inboxes[i]) == 0 {
				continue // a declared no-op
			}
			e.receive(i)
			failed = failed || ctxs[i].err != nil
			inboxes[i] = inboxes[i][:0]
		}
		if failed {
			return e.finish(round, totalMsgs, maxMsgs), e.ctxErr()
		}

		// --- Activate / Deactivate ---
		if _, err := hist.Apply(batch.Activate, batch.Deactivate); err != nil {
			return e.finish(round, totalMsgs, maxMsgs), refused(round, err)
		}
		if cfg.env != nil {
			// Environment boundary: perturbation runs on the round
			// driver after the algorithm's intents committed. Perturb runs
			// every round, in round order, with possibly empty output, as
			// the Environment contract promises.
			e.envEdits.Reset()
			cfg.env.Perturb(round, hist, &e.envEdits)
			if _, err := hist.ApplyEnvironment(e.envEdits.Activate, e.envEdits.Deactivate); err != nil {
				return e.finish(round, totalMsgs, maxMsgs), &Failure{Kind: EnvironmentRefused, Round: round, Err: err}
			}
			if f := e.applyFaults(round); f != nil {
				return e.finish(round, totalMsgs, maxMsgs), f
			}
		}
		if cfg.checkConnect && !hist.CurrentIsConnected(&e.bfs) {
			return e.finish(round, totalMsgs, maxMsgs), &Failure{Kind: Disconnected, Round: round}
		}
		for _, hook := range cfg.hooks {
			hook(RoundEvent{Round: round, Messages: e.delivered})
		}
		if len(cfg.deltaHooks) > 0 {
			hist.AppendLastDelta(&e.delta)
			for _, hook := range cfg.deltaHooks {
				hook(e.delta)
			}
		}

		allHalted := true
		for i := range ctxs {
			if !ctxs[i].halted {
				allHalted = false
				break
			}
		}
		if allHalted {
			return e.finish(round, totalMsgs, maxMsgs), nil
		}
	}
	return e.finish(cfg.maxRounds, totalMsgs, maxMsgs), &Failure{Kind: RoundLimit, Round: cfg.maxRounds}
}

// refused is the failure of an algorithm's edit the History refused in
// round: a *temporal.Violation names its edge's endpoints.
func refused(round int, err error) *Failure {
	f := &Failure{Kind: ModelViolation, Round: round, Err: err}
	if v := (*temporal.Violation)(nil); errors.As(err, &v) {
		f.Node, f.Peer = v.Edge.A, v.Edge.B
	}
	return f
}

// applyFaults commits the environment's crash/restart edits collected
// by the last Perturb. Restarts are processed first so a schedule may
// restart and re-crash a slot across consecutive boundaries without
// ordering surprises; out-of-range slots, crashes of already-down
// slots and restarts of up slots are ignored; only the faults applied
// are counted (Result.Crashes, Result.Restarts). A reboot-restart
// rebuilds the machine from the run's factory and re-runs Init (the
// node comes back blank, as after a power cycle); a sleep-restart
// resumes the machine with its state intact.
func (e *Engine) applyFaults(round int) *Failure {
	n := e.n
	for _, s := range e.envEdits.Restart {
		i := int(s)
		if i < 0 || i >= n || !e.crashed[i] {
			continue
		}
		e.crashed[i] = false
		e.downCount--
		e.restarts++
		if e.envEdits.Reboot {
			ctx := &e.ctxs[i]
			env := Env{N: n}
			ctx.reset(ctx.id)
			e.wake[i] = 0 // the old machine's promise does not bind the new one
			m := e.factory(ctx.id, env)
			if m == nil {
				return &Failure{Kind: MachinePanic, Round: round, Node: ctx.id, Err: errNilMachine}
			}
			e.machines[i] = m
			e.protect(ctx, i, func() { m.Init(ctx) })
			if ctx.err != nil {
				return ctx.err
			}
		}
	}
	for _, s := range e.envEdits.Crash {
		i := int(s)
		if i < 0 || i >= n || e.crashed[i] {
			continue
		}
		e.crashed[i] = true
		e.downCount++
		e.crashes++
	}
	return nil
}

// protect runs one machine step under a recover, converting a panic
// into that slot's MachinePanic failure. Machines are written against
// the paper's model, where only the algorithm edits edges; an adversarial
// environment can break their internal invariants mid-run, and that
// must fail the run (honest robustness data) rather than kill the
// process. Environment runs only — the strict path stays defer-free.
func (e *Engine) protect(ctx *Context, i int, step func()) {
	defer func() {
		if r := recover(); r != nil {
			ctx.err = &Failure{Kind: MachinePanic, Round: e.curRound, Node: ctx.id, Detail: fmt.Sprint(r)}
		}
	}()
	step()
}

// ctxErr returns the lowest slot's failure recorded this phase.
func (e *Engine) ctxErr() error {
	for i := range e.ctxs[:e.n] {
		if f := e.ctxs[i].err; f != nil {
			return f
		}
	}
	return nil
}

// send runs slot i's Send phase. Like receive, it clears the slot's
// SkipUntil promise before the machine may declare a new one.
func (e *Engine) send(i int) {
	ctx := &e.ctxs[i]
	ctx.round = e.curRound
	e.wake[i] = 0
	if ctx.halted || (e.downCount > 0 && e.crashed[i]) {
		return
	}
	if e.cfg.env != nil {
		e.protect(ctx, i, func() { e.machines[i].Send(ctx) })
		return
	}
	e.machines[i].Send(ctx)
}

// receive runs slot i's Receive phase on its inbox. The round is set
// here too: a Receive may run with its Send skipped.
func (e *Engine) receive(i int) {
	ctx := &e.ctxs[i]
	ctx.round = e.curRound
	e.wake[i] = 0
	if ctx.halted || (e.downCount > 0 && e.crashed[i]) {
		return
	}
	if e.cfg.env != nil {
		e.protect(ctx, i, func() { e.machines[i].Receive(ctx, e.inboxes[i]) })
		return
	}
	e.machines[i].Receive(ctx, e.inboxes[i])
}

func (e *Engine) finish(rounds, totalMsgs, maxMsgs int) *Result {
	// The observer fires here — once per run, after the round loop —
	// so instrumentation never executes inside the hot loop.
	if e.cfg.observer != nil {
		e.cfg.observer(RunSummary{
			Rounds:        rounds,
			Duration:      time.Since(e.runStart),
			TotalMessages: totalMsgs,
		})
	}
	e.res = Result{
		History:             e.hist,
		Metrics:             e.hist.Metrics(),
		Rounds:              rounds,
		TotalMessages:       totalMsgs,
		MaxMessagesPerRound: maxMsgs,
		Crashes:             e.crashes,
		Restarts:            e.restarts,
		eng:                 e,
	}
	return &e.res
}

// position is the wake position of round's Send (or Receive),
// 2·round+phase, saturated at MaxInt32: past it no call is skipped.
func position(round int, receive bool) int32 {
	pos := 2 * round
	if receive {
		pos++
	}
	return int32(min(pos, math.MaxInt32))
}

// grow resizes s to length n, reusing capacity (and, for slice
// elements, their backing arrays) when available.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]T, n)
	copy(out, s[:cap(s)])
	return out
}

// clearMessages zeroes a message slice so payload references from a
// finished run cannot leak into the next one via reused capacity.
func clearMessages(ms []Message) {
	for i := range ms {
		ms[i] = Message{}
	}
}
