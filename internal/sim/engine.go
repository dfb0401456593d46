package sim

import (
	"errors"
	"fmt"
	"time"

	"adnet/internal/graph"
	"adnet/internal/temporal"
)

// Engine is a reusable execution core: one engine runs many
// simulations back to back, reusing its contexts, inboxes, intent
// buffers, temporal.History scratch, and worker pool across runs. The
// lifecycle is
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
// what they need (clones, Metrics, PerRound, statuses) before
// resetting. Engines are not safe for concurrent use; run one engine
// per goroutine (see expt.ExecuteSweep for the fleet pattern).
//
// Internally the engine's own state is slot-addressed: node slots are
// ascending-ID ranks 0..n-1 (the History holds the run's one ID↔slot
// table), contexts and machines live in slot-indexed slices, outbox
// entries resolve their destination to a slot at Send time, and
// delivery is slice indexing — no ID→index hash map exists. The worker
// pool is persistent and pinned: each worker owns a fixed slot range
// [lo, hi) for the whole run and parks on its channel between phases
// and between runs instead of being respawned. Parallelism is
// intra-round end to end: workers step their slot ranges, their
// slots' contexts append edge intents straight into the worker's own
// batch (no locks, no copy — worker ranges are ascending and ordered,
// so batch concatenation is exactly the sequential slot order), and
// the batches are validated concurrently inside History.ApplyBatches.
type Engine struct {
	cfg     config
	workers int
	usePool bool // resolved per run: workers > 1 and n large enough
	pool    *workerPool

	hist      *temporal.History
	ctxs      []Context
	machines  []Machine
	inboxes   [][]Message
	delivered []Message

	// batches[w] is worker w's intent batch: the contexts of its slot
	// range append into it (Context.batch) and History.ApplyBatches
	// reads it. Index 0 doubles as the sequential path's single batch.
	batches []temporal.IntentBatch

	// Phase closures, bound once per engine so the round loop does not
	// allocate a closure per phase. They read curRound instead of
	// capturing the loop variable.
	sendFn   func(i int)
	recvFn   func(i int)
	applyPar func(k int, fn func(int))
	curRound int

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
	// one integer compare. envEdits is the reused Perturb scratch.
	factory   Factory
	crashed   []bool
	downCount int
	envEdits  EnvEdits

	n        int
	ready    bool // a successful Reset has not yet been consumed by Run
	runStart time.Time
}

// NewEngine returns an idle engine. Close it when done to release the
// worker pool.
func NewEngine() *Engine {
	e := &Engine{}
	e.sendFn = func(i int) {
		ctx := &e.ctxs[i]
		ctx.beginRound(e.curRound)
		if ctx.halted || (e.downCount > 0 && e.crashed[i]) {
			return
		}
		if e.cfg.env != nil {
			e.protect(ctx, i, func() { e.machines[i].Send(ctx) })
			return
		}
		e.machines[i].Send(ctx)
	}
	e.recvFn = func(i int) {
		ctx := &e.ctxs[i]
		if ctx.halted || (e.downCount > 0 && e.crashed[i]) {
			return
		}
		if e.cfg.env != nil {
			e.protect(ctx, i, func() { e.machines[i].Receive(ctx, e.inboxes[i]) })
			return
		}
		e.machines[i].Receive(ctx, e.inboxes[i])
	}
	e.applyPar = func(k int, fn func(int)) {
		e.pool.runSelf(fn)
	}
	return e
}

// Close releases the persistent worker pool. The engine may be reused
// after Close (Reset recreates the pool on demand).
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
	}
	e.ready = false
}

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
	workers := max(cfg.parallelism, 1)
	e.workers = workers
	e.usePool = workers > 1 && n >= 2*workers

	if e.hist == nil {
		e.hist = temporal.NewHistory(gs)
	} else {
		e.hist.Reset(gs)
	}

	// One intent batch per worker (one total when sequential); chunk is
	// the width of a worker's slot range, which binds slot i to batch i/chunk.
	k := 1
	if e.usePool {
		k = workers
	}
	e.batches = grow(e.batches, k)
	chunk := (n + k - 1) / k

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
		e.ctxs[i].reset(id, e.hist, env)
		e.ctxs[i].batch = &e.batches[i/chunk]
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
	// When the run shrank, scrub the tails beyond n too: slots past
	// the new size would otherwise pin the previous run's machines
	// and payloads through the slices' backing arrays.
	ctxTail := e.ctxs[n:cap(e.ctxs)]
	for i := range ctxTail {
		ctxTail[i].scrub()
	}
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

	if e.usePool {
		if e.pool == nil || e.pool.size != workers {
			if e.pool != nil {
				e.pool.close()
			}
			e.pool = newWorkerPool(workers)
		}
		e.pool.setRanges(n, chunk)
	}
	e.factory = factory
	e.downCount = 0
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

// Run executes the round loop prepared by the last Reset until every
// node halts, the round limit is hit, or an error aborts the
// execution. On a runtime failure (model violation, round limit,
// connectivity check, cancellation) Run returns the partial Result
// alongside the error.
func (e *Engine) Run() (*Result, error) {
	if !e.ready {
		return nil, errors.New("sim: Engine.Run requires a successful Reset first")
	}
	e.ready = false
	cfg := &e.cfg
	if cfg.observer != nil {
		e.runStart = time.Now()
	}
	if e.usePool {
		e.pool.resetBusy()
	}
	n := e.n
	hist := e.hist
	ctxs := e.ctxs[:n]
	machines := e.machines[:n]
	inboxes := e.inboxes[:n]
	batches := e.batches

	// Init phase.
	for i := range machines {
		ctxs[i].round = 0
		machines[i].Init(&ctxs[i])
	}
	if len(cfg.startHooks) > 0 {
		e.initSlots = hist.AppendInitialEdges(e.initSlots)
		for _, hook := range cfg.startHooks {
			hook(StartEvent{N: n, Edges: e.initSlots})
		}
	}

	totalMsgs, maxMsgs := 0, 0
	for round := 1; round <= cfg.maxRounds; round++ {
		if cfg.done != nil {
			select {
			case <-cfg.done:
				return e.finish(round-1, totalMsgs, maxMsgs),
					fmt.Errorf("%w after round %d", ErrCanceled, round-1)
			default:
			}
		}
		// --- Send ---
		// Emptied first: that drops what an Init (run's or reboot's) issued.
		for w := range batches {
			batches[w].Activate = batches[w].Activate[:0]
			batches[w].Deactivate = batches[w].Deactivate[:0]
		}
		e.curRound = round
		e.step(e.sendFn)
		if err := e.ctxErr(); err != nil {
			return e.finish(round, totalMsgs, maxMsgs), err
		}
		// Intents belong in Receive, but one issued in Send commits with
		// this round too, and a sequential scan meets all of those first.
		// Moving the other workers' (rare) Send-phase intents to the front
		// batch keeps the concatenation in that order, so the violation a
		// bad round reports does not depend on the worker count.
		for w := 1; w < len(batches); w++ {
			if b := &batches[w]; len(b.Activate)+len(b.Deactivate) > 0 {
				batches[0].Activate = append(batches[0].Activate, b.Activate...)
				batches[0].Deactivate = append(batches[0].Deactivate, b.Deactivate...)
				b.Activate, b.Deactivate = b.Activate[:0], b.Deactivate[:0]
			}
		}
		// --- Deliver: destination slots were resolved at Send time;
		// whether the edge is active is asked of the History by ID. ---
		for i := range inboxes {
			inboxes[i] = inboxes[i][:0]
		}
		roundMsgs := 0
		for i := range ctxs {
			for _, om := range ctxs[i].outbox {
				if om.slot < 0 || !hist.Active(om.m.From, om.m.To) {
					if cfg.env != nil {
						continue // the environment cut the edge: message lost
					}
					return e.finish(round, totalMsgs, maxMsgs),
						fmt.Errorf("sim: round %d: node %d sent to non-neighbor %d", round, om.m.From, om.m.To)
				}
				if e.downCount > 0 && e.crashed[om.slot] {
					continue // crashed destination drops its inbox
				}
				inboxes[om.slot] = append(inboxes[om.slot], om.m)
				roundMsgs++
			}
		}
		totalMsgs += roundMsgs
		if roundMsgs > maxMsgs {
			maxMsgs = roundMsgs
		}
		// Inboxes are already sender-sorted: senders are processed in
		// ascending slot (= ascending ID) order and each sender's
		// messages keep their queueing order.
		if len(cfg.hooks) > 0 {
			e.delivered = e.delivered[:0]
			for i := range inboxes {
				e.delivered = append(e.delivered, inboxes[i]...)
			}
		}

		// --- Receive + intents, written into the workers' batches ---
		e.step(e.recvFn)
		if err := e.ctxErr(); err != nil {
			return e.finish(round, totalMsgs, maxMsgs), err
		}

		// --- Activate / Deactivate ---
		// Worker ranges are contiguous ascending slot spans, so the
		// batches in worker order reproduce exactly the intent order a
		// sequential slot scan would have produced; ApplyBatches then
		// guarantees an outcome byte-identical to sequential Apply.
		var par func(int, func(int))
		if e.usePool {
			par = e.applyPar
		}
		stats, err := hist.ApplyBatches(batches, par)
		if err != nil {
			return e.finish(round, totalMsgs, maxMsgs), err
		}
		if cfg.env != nil {
			// Environment boundary: perturbation runs on the round
			// driver after the algorithm's intents committed, so it is
			// deterministic regardless of worker count. Perturb runs
			// every round (with possibly empty output) to keep the
			// History's environment bookkeeping round-aligned.
			e.envEdits.Reset()
			cfg.env.Perturb(round, hist, &e.envEdits)
			stats, err = hist.ApplyEnvironment(e.envEdits.Activate, e.envEdits.Deactivate)
			if err != nil {
				return e.finish(round, totalMsgs, maxMsgs), err
			}
			if err := e.applyFaults(round); err != nil {
				return e.finish(round, totalMsgs, maxMsgs), err
			}
		}
		if cfg.checkConnect && !hist.CurrentIsConnected(&e.bfs) {
			return e.finish(round, totalMsgs, maxMsgs),
				fmt.Errorf("%w after round %d", ErrDisconnected, round)
		}
		for _, hook := range cfg.hooks {
			hook(RoundEvent{Round: round, Messages: e.delivered, Stats: stats})
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
	return e.finish(cfg.maxRounds, totalMsgs, maxMsgs),
		fmt.Errorf("%w (limit %d)", ErrRoundLimit, cfg.maxRounds)
}

// applyFaults commits the environment's crash/restart edits collected
// by the last Perturb. Restarts are processed first so a schedule may
// restart and re-crash a slot across consecutive boundaries without
// ordering surprises; out-of-range slots, crashes of already-down
// slots and restarts of up slots are ignored. A reboot-restart rebuilds
// the machine from the run's factory and re-runs Init (the node comes
// back blank, as after a power cycle); a sleep-restart resumes the
// machine with its state intact.
func (e *Engine) applyFaults(round int) error {
	n := e.n
	for _, s := range e.envEdits.Restart {
		i := int(s)
		if i < 0 || i >= n || !e.crashed[i] {
			continue
		}
		e.crashed[i] = false
		e.downCount--
		if e.envEdits.Reboot {
			ctx := &e.ctxs[i]
			env := Env{N: n}
			ctx.reset(ctx.id, e.hist, env)
			m := e.factory(ctx.id, env)
			if m == nil {
				return fmt.Errorf("sim: round %d: factory returned nil machine rebooting node %d", round, ctx.id)
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
		// Drop the inbox the slot had accumulated: a crashed node loses
		// in-flight state, so nothing delivered before the crash
		// survives to its restart round.
		e.inboxes[i] = e.inboxes[i][:0]
	}
	return nil
}

// protect runs one machine step under a recover, converting a panic
// into that slot's run error. Machines are written against the paper's
// model, where only the algorithm edits edges; an adversarial
// environment can break their internal invariants mid-run, and that
// must fail the run (honest robustness data) rather than kill the
// process. Environment runs only — the strict path stays defer-free.
func (e *Engine) protect(ctx *Context, i int, step func()) {
	defer func() {
		if r := recover(); r != nil {
			ctx.err = fmt.Errorf("sim: round %d: node %d panicked under environment perturbation: %v",
				e.curRound, ctx.id, r)
		}
	}()
	step()
}

// ctxErr returns the first per-context error recorded this phase.
func (e *Engine) ctxErr() error {
	for i := range e.ctxs[:e.n] {
		if err := e.ctxs[i].err; err != nil {
			return err
		}
	}
	return nil
}

// step runs fn for every slot, sequentially or on the pinned pool.
func (e *Engine) step(fn func(i int)) {
	if !e.usePool {
		for i := 0; i < e.n; i++ {
			fn(i)
		}
		return
	}
	e.pool.run(fn)
}

func (e *Engine) finish(rounds, totalMsgs, maxMsgs int) *Result {
	// The observer fires here — once per run, after the round loop —
	// so instrumentation never executes inside the hot loop.
	if e.cfg.observer != nil {
		dur := time.Since(e.runStart)
		workers, busy := 1, dur
		if e.usePool {
			workers, busy = e.workers, e.pool.totalBusy()
		}
		e.cfg.observer(RunSummary{
			Rounds:        rounds,
			Duration:      dur,
			TotalMessages: totalMsgs,
			Workers:       workers,
			BusyTime:      busy,
		})
	}
	e.res = Result{
		History:             e.hist,
		Metrics:             e.hist.Metrics(),
		Rounds:              rounds,
		TotalMessages:       totalMsgs,
		MaxMessagesPerRound: maxMsgs,
		eng:                 e,
	}
	return &e.res
}

// poolTask is one unit of work for the pool: either a range task
// (fn applied to every slot of the worker's range) or a self task
// (self applied once to the worker's own index — how ApplyBatches
// validation shards land on their workers). Exactly one field is set.
type poolTask struct {
	fn   func(i int)
	self func(w int)
}

// workerPool is a persistent, pinned pool: size goroutines, each
// owning the fixed slot range [lo[w], hi[w]). Workers park on their
// start channel between phases and between runs; a phase is one
// channel send per worker, one completion receive per worker. Ranges
// are rewritten only between runs (Engine.Reset), which
// happens-before the next start send. Each worker accumulates the
// wall-clock time it spends executing tasks in busy[w] (written only
// by worker w, read by the driver after the completion barrier), which
// is what RunSummary.BusyTime — and the parallel-efficiency metric
// built on it — reports.
type workerPool struct {
	size   int
	lo, hi []int
	busy   []time.Duration
	start  []chan poolTask
	done   chan struct{}
}

func newWorkerPool(size int) *workerPool {
	p := &workerPool{
		size:  size,
		lo:    make([]int, size),
		hi:    make([]int, size),
		busy:  make([]time.Duration, size),
		start: make([]chan poolTask, size),
		done:  make(chan struct{}, size),
	}
	for w := 0; w < size; w++ {
		p.start[w] = make(chan poolTask)
		go func(w int) {
			for t := range p.start[w] {
				t0 := time.Now()
				if t.self != nil {
					t.self(w)
				} else {
					for i := p.lo[w]; i < p.hi[w]; i++ {
						t.fn(i)
					}
				}
				p.busy[w] += time.Since(t0)
				p.done <- struct{}{}
			}
		}(w)
	}
	return p
}

// setRanges pins contiguous slot ranges of width chunk = ⌈n/size⌉ (the
// last ones shorter or empty) for n slots.
func (p *workerPool) setRanges(n, chunk int) {
	for w := 0; w < p.size; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		p.lo[w], p.hi[w] = lo, hi
	}
}

// run executes one range phase: every worker steps its own range, and
// all workers are awaited before returning. Errors are recorded
// per-Context by fn and surfaced by the caller, keeping execution
// deterministic regardless of scheduling.
func (p *workerPool) run(fn func(i int)) {
	t := poolTask{fn: fn}
	for w := 0; w < p.size; w++ {
		p.start[w] <- t
	}
	for w := 0; w < p.size; w++ {
		<-p.done
	}
}

// runSelf executes fn(w) once on every worker w and awaits them all.
func (p *workerPool) runSelf(fn func(w int)) {
	t := poolTask{self: fn}
	for w := 0; w < p.size; w++ {
		p.start[w] <- t
	}
	for w := 0; w < p.size; w++ {
		<-p.done
	}
}

func (p *workerPool) resetBusy() {
	for w := range p.busy {
		p.busy[w] = 0
	}
}

// totalBusy sums the per-worker busy time. Callers must have observed
// the completion barrier of every outstanding task.
func (p *workerPool) totalBusy() time.Duration {
	var total time.Duration
	for _, b := range p.busy {
		total += b
	}
	return total
}

func (p *workerPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
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
