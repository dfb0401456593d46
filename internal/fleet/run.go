package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"adnet/internal/expt"
	"adnet/internal/sim"
)

// Summary is what a distributed sweep's merged cells cannot show:
// Executed sums the completing workers' own summaries, so it keeps the
// worker-side "a simulation actually ran" semantics; Replayed counts
// the cells of shards the caller's lookup answered without dispatch.
// Cell, cache-hit and error counts are the emitted cells' own.
type Summary struct {
	Executed int
	Replayed int
}

// RunGrid executes the grid across the registry's healthy workers and
// emits every cell, with its global canonical Index, in canonical grid
// order from the calling goroutine. The emitted cells are the ones the
// workers streamed, each checked against the grid's cell at its
// position, so folding them (expt.Aggregate) gives the aggregate a
// single-process run of the same grid would, byte for byte.
//
// On failure (cancellation, or a shard out of dispatch attempts with
// no healthy worker left) RunGrid still emits one result per cell: the
// cells of every shard that completed, then error-marked skip cells
// for the rest — the same contract a single-process sweep keeps under
// cancellation — and returns the failure.
//
// lookup, when set, is asked for every cell of a shard, with the
// cell's canonical index, before dispatch. A shard it answers in full
// merges from those outcomes, marked FromCache and counted in
// Summary.Replayed, and is never dispatched (a grid answered in full
// needs no workers at all); a shard it answers only in part is
// dispatched whole.
func (c *Coordinator) RunGrid(ctx context.Context, spec expt.SweepSpec,
	lookup func(int, expt.Cell) (expt.Outcome, bool), emit func(expt.CellResult)) (Summary, error) {
	if err := spec.Validate(); err != nil {
		return Summary{}, err
	}
	shards := PlanShards(spec)
	cells := spec.Cells()
	var sum Summary

	// An answered shard is complete before dispatch starts: the lookup's
	// outcomes are its progress, and its executed count stays 0 — that
	// work ran somewhere else, not on a worker of this grid.
	progress := make([]shardProgress, len(shards))
	answered := 0
	if lookup != nil {
		for i, sh := range shards {
			progress[i].cells = answer(lookup, sh.Offset, cells[sh.Offset:sh.Offset+sh.NumCells()])
			if progress[i].cells != nil {
				answered++
				sum.Replayed += sh.NumCells()
			}
		}
	}

	// A canceled grid probes no worker: it ends canceled, not short of one.
	var workers []*worker
	if ctx.Err() == nil {
		workers = c.healthyWorkers(ctx)
	}
	c.cfg.Logger.InfoContext(ctx, "fleet sweep dispatching",
		slog.Int("cells", len(cells)), slog.Int("shards", len(shards)),
		slog.Int("answered_shards", answered),
		slog.Int("workers", len(workers)))
	runErr := c.dispatchAll(ctx, shards, cells, progress, workers, emit)
	// Shards that completed before a failure still did their work:
	// keep their Executed counts in the summary, like the incremental
	// single-process summary would.
	for i := range progress {
		sum.Executed += progress[i].executed
	}
	return sum, runErr
}

// answer returns the cells of the shard at offset, marked FromCache,
// when lookup answers every one of them, and nil otherwise.
func answer(lookup func(int, expt.Cell) (expt.Outcome, bool), offset int, cells []expt.Cell) []expt.CellResult {
	var answered []expt.CellResult
	for i, cell := range cells {
		out, ok := lookup(offset+i, cell)
		if !ok {
			return nil
		}
		if answered == nil {
			answered = make([]expt.CellResult, len(cells))
		}
		answered[i] = expt.CellResult{Index: offset + i, Cell: cell, Outcome: out, FromCache: true}
	}
	return answered
}

// dispatchAll runs the shard queue to completion and merges whole
// shards. Dispatcher goroutines own shard execution: the one that
// completes shard idx leaves its cells in progress[idx] and sends idx
// on ready. The calling goroutine owns the merge: it emits ready
// shards in canonical order. Shards whose progress already holds cells
// (answered by the lookup) never enter the queue.
func (c *Coordinator) dispatchAll(ctx context.Context, shards []Shard, cells []expt.Cell,
	progress []shardProgress, workers []*worker, emit func(expt.CellResult)) error {
	// complete[i] is the merger's own record that shard i completed;
	// next is the first shard not emitted yet.
	complete := make([]bool, len(shards))
	next := 0
	emitShard := func(i int) {
		for _, cr := range progress[i].cells {
			emit(cr)
		}
	}
	flush := func() {
		for ; next < len(shards) && complete[next]; next++ {
			emitShard(next)
		}
	}
	fail := func(cause error) error {
		// Keep the contract: one result per cell. Complete shards
		// stand; the rest become skip cells.
		skipped := fmt.Errorf("fleet: cell skipped: %w", cause)
		for ; next < len(shards); next++ {
			if complete[next] {
				emitShard(next)
				continue
			}
			for i := shards[next].Offset; i < shards[next].Offset+shards[next].NumCells(); i++ {
				emit(expt.CellResult{Index: i, Cell: cells[i], Err: skipped})
			}
		}
		return cause
	}

	// queue holds shard indices; capacity len(shards) means a requeue
	// never blocks (a shard is in at most one place: queued, running,
	// or done). The queue is closed exactly once, when pending reaches
	// zero — up front for a fully answered grid, else by the dispatcher
	// that finishes the last shard; a requeue implies an unfinished
	// shard, so no send can race the close. Fatal shutdown goes
	// through runCtx cancellation instead of a close: idle dispatchers
	// wake on Done, and a closed-channel send is impossible.
	queue := make(chan int, len(shards))
	var pending atomic.Int32
	for i := range shards {
		complete[i] = progress[i].cells != nil
		if !complete[i] {
			queue <- i
			pending.Add(1)
		}
	}
	// A fully answered grid needs no workers; with none, anything left
	// to dispatch stays pending and fails below.
	if pending.Load() == 0 {
		close(queue)
	}
	// ready carries completed shard indices to the merger; each shard
	// completes once, so a send never blocks.
	ready := make(chan int, len(shards))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		fatalMu  sync.Mutex
		fatalErr error
		wg       sync.WaitGroup
	)
	setFatal := func(err error) {
		fatalMu.Lock()
		if fatalErr == nil {
			fatalErr = err
		}
		fatalMu.Unlock()
		cancel()
	}

	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				var idx int
				var ok bool
				select {
				case <-runCtx.Done():
					return
				case idx, ok = <-queue:
					if !ok {
						return
					}
				}
				sp := &progress[idx]
				c.metrics.shardsDispatched.Inc()
				dispatchStart := time.Now()
				sh := shards[idx]
				err := c.runShard(runCtx, w, sh, cells[sh.Offset:sh.Offset+sh.NumCells()], sp)
				if err == nil {
					c.metrics.shardSeconds.With(w.id).Observe(time.Since(dispatchStart).Seconds())
					w.noteShardDone()
					ready <- idx
					if pending.Add(-1) == 0 {
						close(queue)
					}
					continue
				}
				if runCtx.Err() != nil {
					return
				}
				if errors.Is(err, errWorkerBusy) {
					// Saturated gate, not a broken worker: wait it out
					// rather than burn a dispatch attempt — worker
					// sweeps legally hold the gate for minutes, and the
					// coordinator sweep's own time limit (via ctx)
					// bounds how long this loop may pace.
					c.metrics.busyRetries.Inc()
					select {
					case <-time.After(retryBackoff):
					case <-runCtx.Done():
						return
					}
					queue <- idx
					continue
				}
				if errors.Is(err, errDispatchRejected) {
					// Deterministic 4xx: every worker would refuse the
					// same spec (config skew between coordinator and
					// worker limits). Fail the sweep now; the worker is
					// fine.
					setFatal(fmt.Errorf("fleet: shard %d (offset %d): %w", idx, shards[idx].Offset, err))
					return
				}
				sp.attempts++
				if sp.attempts >= shardAttempts {
					setFatal(fmt.Errorf("fleet: shard %d (offset %d) failed after %d dispatch attempts: %w",
						idx, shards[idx].Offset, sp.attempts, err))
					return
				}
				// Any other failure — a broken or short stream, an
				// incomplete worker sweep, a failed POST — re-queues the
				// shard, and the worker's own /healthz decides what it
				// cost the worker. A live worker keeps dispatching: a
				// re-dispatch re-hits its result cache. A dead one is
				// out of rotation (the probe marked it unhealthy) and
				// its shard counts as re-dispatched. If this was the
				// last live dispatcher, the requeued index sits in the
				// buffered queue and RunGrid reports ErrNoWorkers once
				// every dispatcher has drained out.
				queue <- idx
				if c.probe(runCtx, w) {
					continue
				}
				c.metrics.shardsRedispatched.Inc()
				c.cfg.Logger.WarnContext(runCtx, "fleet worker died mid-shard; re-dispatching",
					slog.String("worker", w.id), slog.Int("shard", idx),
					slog.String("error", err.Error()))
				return
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(ready)
	}()

	flush()
	for idx := range ready {
		complete[idx] = true
		flush()
	}

	fatalMu.Lock()
	cause := fatalErr
	fatalMu.Unlock()
	switch {
	case ctx.Err() != nil:
		return fail(fmt.Errorf("fleet: sweep: %w", sim.ErrCanceled))
	case cause != nil:
		return fail(cause)
	case pending.Load() != 0:
		return fail(ErrNoWorkers)
	}
	return nil
}
