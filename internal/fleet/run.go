package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adnet/internal/expt"
	"adnet/internal/sim"
)

// Summary totals a distributed sweep: the wire summary the sweep's
// cell stream trails with, plus the fleet's own counters. CacheHits and
// Errors are counted over the merged cell stream (synthesized
// skip-cells included); Executed sums the completing workers' own
// summaries, so it keeps the worker-side "a simulation actually ran"
// semantics. Replayed counts cells served from journaled shards
// (GridHooks.Completed) without re-dispatching. Done is set when the
// whole grid merged.
type Summary struct {
	expt.WireSummary
	Shards       int
	Redispatches int
}

// ShardResult is one completed shard's durable payload, and the shard
// record of a coordinator's sweep journal: the cells in shard-local
// canonical order — all the merge needs to replay the shard without
// ever re-dispatching it. (Records written before the aggregate became
// the fold of the merged cells also carry a "groups" member; decoding
// ignores it.)
type ShardResult struct {
	Key    string          `json:"key"`
	Index  int             `json:"index"`
	Offset int             `json:"offset"`
	Cells  []expt.WireCell `json:"cells"`
}

// GridHooks wires RunGrid to a durability layer. Completed is asked
// once per planned shard (by canonical shard key) before dispatch; a
// hit merges the recorded cells (marked FromCache) instead of running
// the shard. Persist receives every shard this run completes, after
// the shard was handed to the merger — it may be called concurrently
// from dispatcher goroutines. Either hook may be nil.
type GridHooks struct {
	Completed func(shardKey string) (ShardResult, bool)
	Persist   func(ShardResult)
}

// RunGrid executes the grid across the registry's healthy workers and
// emits every cell — Index rewritten to the global canonical position —
// in canonical grid order from the calling goroutine. The emitted cells
// are the ones the workers streamed, so folding them
// (expt.AggregateWire) gives the aggregate a single-process run of the
// same grid would, byte for byte.
//
// On failure (cancellation, or a shard out of dispatch attempts with
// no healthy worker left) RunGrid still emits one line per cell: the
// cells of every shard that completed, then error-marked skip cells
// for the rest — the same wire contract a single-process sweep keeps
// under cancellation — and returns the failure.
//
// hooks connects the grid to a shard journal: shards hooks.Completed
// recognizes are merged from their recorded cells without dispatching
// (a grid whose shards all replay needs no workers at all), and every
// freshly completed shard is handed to hooks.Persist.
func (c *Coordinator) RunGrid(ctx context.Context, spec expt.SweepSpec, emit func(expt.WireCell), hooks GridHooks) (Summary, error) {
	if err := spec.Validate(); err != nil {
		return Summary{}, err
	}
	shards := PlanShards(spec)
	cells := spec.Cells()
	sum := Summary{WireSummary: expt.WireSummary{Cells: len(cells)}, Shards: len(shards)}

	// A journaled shard is complete before dispatch starts: its recorded
	// cells are its progress, marked FromCache (journal-recovered error
	// cells keep their flags), and its executed count stays 0 — that
	// work ran in a previous process life, not this one.
	progress := make([]shardProgress, len(shards))
	journaled := 0
	if hooks.Completed != nil {
		for i := range shards {
			res, ok := hooks.Completed(shards[i].Key)
			if !ok {
				continue
			}
			if len(res.Cells) != shards[i].NumCells() {
				// A record that does not cover the shard is unusable;
				// dispatch the shard normally.
				c.cfg.Logger.WarnContext(ctx, "journaled shard incomplete; re-dispatching",
					slog.Int("shard", i), slog.Int("cells", len(res.Cells)))
				continue
			}
			replayed := slices.Clone(res.Cells)
			for j := range replayed {
				if replayed[j].Error == "" {
					replayed[j].FromCache = true
				}
			}
			progress[i].cells = replayed
			journaled++
			sum.Replayed += len(replayed)
		}
	}

	// A canceled grid probes no worker: it ends canceled, not short of one.
	var workers []*worker
	if ctx.Err() == nil {
		workers = c.healthyWorkers(ctx)
	}
	c.cfg.Logger.InfoContext(ctx, "fleet sweep dispatching",
		slog.Int("cells", len(cells)), slog.Int("shards", len(shards)),
		slog.Int("replayed_shards", journaled),
		slog.Int("workers", len(workers)))
	runErr := c.dispatchAll(ctx, shards, cells, progress, workers, &sum, emit, hooks.Persist)
	// Shards that completed before a failure still did their work:
	// keep their Executed counts in the summary, like the incremental
	// single-process summary would.
	for i := range progress {
		sum.Executed += progress[i].executed
	}
	sum.Done = runErr == nil
	return sum, runErr
}

// dispatchAll runs the shard queue to completion and merges whole
// shards. Dispatcher goroutines own shard execution: the one that
// completes shard idx leaves its cells in progress[idx], sends idx on
// ready, and then persists the shard. The calling goroutine owns the
// merge: it emits ready shards in canonical order, rewriting each
// cell's shard-local index to its global one. Shards whose progress
// already holds cells (journaled) never enter the queue.
func (c *Coordinator) dispatchAll(ctx context.Context, shards []Shard, cells []expt.Cell,
	progress []shardProgress, workers []*worker, sum *Summary,
	emit func(expt.WireCell), persist func(ShardResult)) error {
	emitCount := func(cell expt.WireCell) {
		if cell.Error != "" {
			sum.Errors++
		} else if cell.FromCache {
			sum.CacheHits++
		}
		if emit != nil {
			emit(cell)
		}
	}

	// complete[i] is the merger's own record that shard i completed;
	// next is the first shard not emitted yet.
	complete := make([]bool, len(shards))
	next := 0
	emitShard := func(i int) {
		for j, cell := range progress[i].cells {
			cell.Index = shards[i].Offset + j
			emitCount(cell)
		}
	}
	flush := func() {
		for ; next < len(shards) && complete[next]; next++ {
			emitShard(next)
		}
	}
	fail := func(cause error) error {
		// Keep the wire contract: one line per cell. Complete shards
		// stand; the rest become skip cells.
		skipped := fmt.Errorf("fleet: cell skipped: %w", cause)
		for ; next < len(shards); next++ {
			if complete[next] {
				emitShard(next)
				continue
			}
			for i := shards[next].Offset; i < shards[next].Offset+shards[next].NumCells(); i++ {
				emitCount(expt.CellResult{Index: i, Cell: cells[i], Err: skipped}.Wire())
			}
		}
		return cause
	}

	// queue holds shard indices; capacity len(shards) means a requeue
	// never blocks (a shard is in at most one place: queued, running,
	// or done). The queue is closed exactly once, when pending reaches
	// zero — up front for a fully journaled grid, else by the dispatcher
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
	// A fully journaled grid needs no workers; with none, anything left
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
		fatalMu      sync.Mutex
		fatalErr     error
		redispatches atomic.Int32
		wg           sync.WaitGroup
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
				err := c.runShard(runCtx, w, shards[idx], sp)
				if err == nil {
					c.metrics.shardSeconds.With(w.id).Observe(time.Since(dispatchStart).Seconds())
					w.noteShardDone()
					ready <- idx
					if persist != nil {
						persist(ShardResult{
							Key: shards[idx].Key, Index: idx, Offset: shards[idx].Offset,
							Cells: sp.cells,
						})
					}
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
					setFatal(fmt.Errorf("fleet: shard %d (%s): %w", idx, shards[idx].Key, err))
					return
				}
				sp.attempts++
				if sp.attempts >= shardAttempts {
					setFatal(fmt.Errorf("fleet: shard %d (%s) failed after %d dispatch attempts: %w",
						idx, shards[idx].Key, sp.attempts, err))
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
				redispatches.Add(1)
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
	sum.Redispatches = int(redispatches.Load())

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
