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
// hit delivers the recorded cells (marked FromCache) instead of
// running the shard. Persist receives every shard this run
// completes, after its cells were delivered — it may be called
// concurrently from dispatcher goroutines. Either hook may be nil.
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
// cells that merged before the failure, then error-marked skip cells
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

	replayed := make(map[int]ShardResult)
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
			replayed[i] = res
			sum.Replayed += len(res.Cells)
		}
	}

	workers := c.healthyWorkers(ctx)
	c.cfg.Logger.InfoContext(ctx, "fleet sweep dispatching",
		slog.Int("cells", len(cells)), slog.Int("shards", len(shards)),
		slog.Int("replayed_shards", len(replayed)),
		slog.Int("workers", len(workers)))
	progress, runErr := c.dispatchAll(ctx, shards, workers, &sum, cells, emit, replayed, hooks.Persist)
	// Shards that completed before a failure still did their work:
	// keep their Executed counts in the summary, like the incremental
	// single-process summary would.
	for i := range progress {
		sum.Executed += progress[i].executed
	}
	sum.Done = runErr == nil
	return sum, runErr
}

// dispatchAll runs the shard queue to completion and merges
// deliveries. It owns the merge/emit loop; dispatcher goroutines own
// shard execution. Shards in replayed never touch the queue: their
// recorded cells are injected into the delivery stream by a local
// replayer goroutine, and their executed count stays 0 — that work ran
// in a previous process life, not this one.
func (c *Coordinator) dispatchAll(ctx context.Context, shards []Shard, workers []*worker,
	sum *Summary, cells []expt.Cell, emit func(expt.WireCell),
	replayed map[int]ShardResult, persist func(ShardResult)) ([]shardProgress, error) {
	progress := make([]shardProgress, len(shards))

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

	fail := func(next int, buffered map[int]expt.WireCell, cause error) ([]shardProgress, error) {
		// Keep the wire contract: one line per cell. Merged and
		// buffered cells stand; the gaps become skip cells.
		skipped := fmt.Errorf("fleet: cell skipped: %w", cause)
		for ; next < len(cells); next++ {
			cell, ok := buffered[next]
			if !ok {
				cell = expt.CellResult{Index: next, Cell: cells[next], Err: skipped}.Wire()
			}
			emitCount(cell)
		}
		return progress, cause
	}

	// A fully replayed grid needs no workers; anything left to dispatch
	// does.
	if len(workers) == 0 && len(replayed) < len(shards) {
		return fail(0, nil, ErrNoWorkers)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// queue holds shard indices; capacity len(shards) means a requeue
	// never blocks (a shard is in at most one place: queued, running,
	// or done). The queue is closed exactly once, by the dispatcher
	// that finishes the last shard — a requeue implies an unfinished
	// shard, so no send can race the close. Fatal shutdown goes
	// through runCtx cancellation instead of a close: idle dispatchers
	// wake on Done, and a closed-channel send is impossible.
	queue := make(chan int, len(shards))
	for i := range shards {
		if _, ok := replayed[i]; !ok {
			queue <- i
		}
	}
	var closeOnce sync.Once
	closeQueue := func() { closeOnce.Do(func() { close(queue) }) }

	deliveries := make(chan expt.WireCell, 64)

	var (
		done         atomic.Int32
		fatalMu      sync.Mutex
		fatalErr     error
		redispatches atomic.Int32
		wg           sync.WaitGroup
	)
	// Replayed shards are born done; with nothing left to dispatch the
	// queue closes now so idle dispatchers drain out immediately.
	done.Store(int32(len(replayed)))
	if int(done.Load()) == len(shards) {
		closeQueue()
	}
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
				err := c.runShard(runCtx, w, shards[idx], sp, func(cell expt.WireCell) {
					select {
					case deliveries <- cell:
					case <-runCtx.Done():
					}
				})
				if err == nil {
					c.metrics.shardSeconds.With(w.id).Observe(time.Since(dispatchStart).Seconds())
					w.noteShardDone()
					if persist != nil {
						persist(ShardResult{
							Key: shards[idx].Key, Index: idx, Offset: shards[idx].Offset,
							Cells: sp.cells,
						})
					}
					if int(done.Add(1)) == len(shards) {
						closeQueue()
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
					case <-time.After(c.cfg.RetryBackoff):
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
				if sp.attempts >= c.cfg.ShardAttempts {
					setFatal(fmt.Errorf("fleet: shard %d (%s) failed after %d dispatch attempts: %w",
						idx, shards[idx].Key, sp.attempts, err))
					return
				}
				if errors.Is(err, errSweepIncomplete) {
					// The worker proved itself alive by streaming the
					// full canceled shape — a worker-side sweep time
					// limit or third-party cancellation — so it keeps
					// its health and this dispatcher stays in rotation;
					// each cycle cost real worker time, so it does
					// consume a dispatch attempt.
					queue <- idx
					continue
				}
				// The worker broke mid-shard: take it out of rotation
				// and hand the shard to whoever is still alive. If this
				// was the last live dispatcher, the requeued index sits
				// in the buffered queue and RunGrid reports ErrNoWorkers
				// once every dispatcher has drained out.
				w.setHealth(false, err.Error())
				c.metrics.shardsRedispatched.Inc()
				c.cfg.Logger.WarnContext(runCtx, "fleet worker broke mid-shard; re-dispatching",
					slog.String("worker", w.id), slog.Int("shard", idx),
					slog.String("error", err.Error()))
				redispatches.Add(1)
				queue <- idx
				return
			}
		}(w)
	}
	if len(replayed) > 0 {
		// The replayer is a local "dispatcher" for journaled shards: it
		// injects their recorded cells — global indexes, marked
		// FromCache (journal-recovered error cells keep their flags) —
		// into the same delivery stream live shards feed.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx, res := range replayed {
				for i, cell := range res.Cells {
					cell.Index = shards[idx].Offset + i
					if cell.Error == "" {
						cell.FromCache = true
					}
					select {
					case deliveries <- cell:
					case <-runCtx.Done():
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(deliveries)
	}()

	// Merge: deliveries arrive shard-ordered per shard but interleaved
	// across shards; re-emit in global canonical order.
	next := 0
	buffered := make(map[int]expt.WireCell)
	for d := range deliveries {
		buffered[d.Index] = d
		for {
			cell, ok := buffered[next]
			if !ok {
				break
			}
			delete(buffered, next)
			emitCount(cell)
			next++
		}
	}
	sum.Redispatches = int(redispatches.Load())

	fatalMu.Lock()
	cause := fatalErr
	fatalMu.Unlock()
	switch {
	case ctx.Err() != nil:
		return fail(next, buffered, fmt.Errorf("fleet: sweep: %w", sim.ErrCanceled))
	case cause != nil:
		return fail(next, buffered, cause)
	case int(done.Load()) != len(shards):
		return fail(next, buffered, ErrNoWorkers)
	}
	return progress, nil
}
