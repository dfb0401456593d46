package expt

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adnet/internal/dynamics"
	"adnet/internal/graph"
	"adnet/internal/sim"
)

// Runner is an engine-backed executor: it holds one sim.Engine and
// reuses its buffers (contexts, inboxes, history scratch, and the BFS
// scratch the verdict's diameter and depth walks borrow) across
// Execute calls. One Runner serves one goroutine; for
// parallel grids use ExecuteSweep, which runs a fleet of Runners.
type Runner struct {
	eng *sim.Engine
	// Workload arena: generators build into these two graphs (the
	// second is scratch for families that permute an intermediate),
	// so repeated Execute calls reuse the adjacency backing arrays
	// instead of allocating a fresh graph per cell. Safe because the
	// engine copies the initial graph canonically at Reset and never
	// retains the caller's graph.
	wg, wscratch *graph.Graph
}

// NewRunner returns a fresh Runner. Close it when done with it.
func NewRunner() *Runner {
	return &Runner{eng: sim.NewEngine(), wg: graph.New(), wscratch: graph.New()}
}

// Close releases the underlying engine.
func (r *Runner) Close() { r.eng.Close() }

// Execute builds the workload and runs the algorithm on it, reusing
// the Runner's engine and workload arena. A dynamics block becomes the
// run's environment (internal/dynamics); RunAlgorithm reports the
// faults the engine applied as the outcome's Crashes/Restarts.
func (r *Runner) Execute(req Request) (Outcome, error) {
	if req.Dynamics != nil {
		if err := requireSimulated(req.Algorithm); err != nil {
			return Outcome{}, err
		}
		env, err := dynamics.New(*req.Dynamics, req.Seed)
		if err != nil {
			return Outcome{}, err
		}
		req.SimOpts = append(req.SimOpts, sim.WithEnvironment(env))
	}
	g, err := WorkloadInto(r.wg, r.wscratch, req.Workload, req.N, req.Seed)
	if err != nil {
		return Outcome{}, err
	}
	return r.RunAlgorithm(req.Algorithm, g, req.SimOpts...)
}

// Cell is the canonical description of one deterministic run — the
// body of POST /v1/runs and one point of a sweep grid. Two cells with
// equal Key() produce identical Outcomes: every workload generator is
// seeded and the engine is deterministic (one goroutine steps a run),
// which is what makes result caching sound.
type Cell struct {
	Algorithm string `json:"algorithm"`
	Workload  string `json:"workload"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	// MaxRounds overrides the algorithm's default round limit when
	// positive. It is part of the key: a tighter limit can turn a
	// completing run into a round-limit failure.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Dynamics, when present, attaches an adversarial environment
	// (internal/dynamics) to the run. Its canonical key joins the run
	// key, so perturbed runs never collide with clean ones. Within a
	// sweep the pointer is shared across the grid's cells and never
	// mutated.
	Dynamics *dynamics.Spec `json:"dynamics,omitempty"`
}

// Key is the run's canonical identity: every field that influences
// the simulation outcome, and nothing else. A grid cell and an
// individually submitted run are the same type, so equal parameters
// share a result-cache entry by construction. The format is stable —
// cached results, journals, job IDs and mixed fleets depend on it.
func (c Cell) Key() string {
	return withDynamics(fmt.Sprintf("%s|%s|n=%d|seed=%d|maxr=%d",
		c.Algorithm, c.Workload, c.N, c.Seed, c.MaxRounds), c.Dynamics)
}

// withDynamics appends the dynamics block's canonical key to a run or
// sweep key. A nil block leaves the key unchanged, which is what keeps
// every dynamics-free key byte-identical to its pre-dynamics form; a
// future identity field joins the same way, only when set.
func withDynamics(key string, d *dynamics.Spec) string {
	if d == nil {
		return key
	}
	return key + "|dyn=" + d.Key()
}

// Grid returns the one-cell sweep grid that enumerates exactly this
// run: what holds for grids (validation, limits) holds for runs through
// it.
func (c Cell) Grid() SweepSpec {
	return SweepSpec{
		Algorithms: []string{c.Algorithm}, Workloads: []string{c.Workload},
		Sizes: []int{c.N}, Seeds: []int64{c.Seed},
		MaxRounds: c.MaxRounds, Dynamics: c.Dynamics,
	}
}

// Groups splits xs, which are in a grid's canonical order, into its
// aggregation groups: the contiguous runs of one (algorithm, workload,
// n), seeds varying fastest. It yields each group with the index of its
// first element; cell reads an element's cell.
func Groups[T any](xs []T, cell func(T) Cell) iter.Seq2[int, []T] {
	return func(yield func(int, []T) bool) {
		for start := 0; start < len(xs); {
			c, end := cell(xs[start]), start+1
			for ; end < len(xs); end++ {
				if o := cell(xs[end]); o.Algorithm != c.Algorithm || o.Workload != c.Workload || o.N != c.N {
					break
				}
			}
			if !yield(start, xs[start:end]) {
				return
			}
			start = end
		}
	}
}

// Validate checks the cell against the registered algorithm and
// workload names and the model's minimum size.
func (c Cell) Validate() error { return c.Grid().Validate() }

// Request converts the cell to the spec-driven Request form.
func (c Cell) Request() Request {
	req := Request{Algorithm: c.Algorithm, Workload: c.Workload, N: c.N, Seed: c.Seed, Dynamics: c.Dynamics}
	if c.MaxRounds > 0 {
		req.SimOpts = append(req.SimOpts, sim.WithMaxRounds(c.MaxRounds))
	}
	return req
}

// SweepSpec describes a (algorithms × workloads × sizes × seeds)
// grid. MaxRounds, when positive, overrides every cell's round limit.
// Dynamics, when non-nil, attaches the same adversarial environment
// spec to every cell (each cell still derives its own perturbation
// seed from its run seed). Repeated values within a dimension are
// ignored (first occurrence wins), so a grid never contains duplicate
// cells: NumCells, Cells and Validate all see the deduplicated
// dimensions.
type SweepSpec struct {
	Algorithms []string       `json:"algorithms"`
	Workloads  []string       `json:"workloads"`
	Sizes      []int          `json:"sizes"`
	Seeds      []int64        `json:"seeds"`
	MaxRounds  int            `json:"max_rounds,omitempty"`
	Dynamics   *dynamics.Spec `json:"dynamics,omitempty"`
}

// Key is the grid's canonical identity: the dimension lists as
// submitted plus the shared round limit and dynamics. Two sweeps with
// equal keys enumerate identical cells, cell for cell. Sweep job IDs
// and journal file names derive from it, so the format is as stable
// as Cell.Key's.
func (s SweepSpec) Key() string {
	return withDynamics(fmt.Sprintf("sweep|a=%s|w=%s|n=%s|seed=%s|maxr=%d",
		strings.Join(s.Algorithms, ","), strings.Join(s.Workloads, ","),
		joinInts(s.Sizes), joinInts(s.Seeds), s.MaxRounds), s.Dynamics)
}

// joinInts renders xs in decimal, comma-separated.
func joinInts[T int | int64](xs []T) string {
	var b []byte
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// Expt returns the spec unchanged. It is what remains of the
// conversion from the service's once-separate SweepSpec struct (now an
// alias of this type); the frozen benchmark/ still calls it.
func (s SweepSpec) Expt() SweepSpec { return s }

// Normalized returns the spec with duplicate dimension values
// removed, preserving first-occurrence order: the grid NumCells, Cells
// and CellAt enumerate.
func (s SweepSpec) Normalized() SweepSpec {
	s.Algorithms, s.Workloads = dedup(s.Algorithms), dedup(s.Workloads)
	s.Sizes, s.Seeds = dedup(s.Sizes), dedup(s.Seeds)
	return s
}

// NumCells returns the grid size (after dimension deduplication).
func (s SweepSpec) NumCells() int {
	n := s.Normalized()
	return len(n.Algorithms) * len(n.Workloads) * len(n.Sizes) * len(n.Seeds)
}

// Cells enumerates the grid in canonical order: algorithm-major, then
// workload, size, seed. Sweep results and streams always follow this
// order.
func (s SweepSpec) Cells() []Cell {
	s = s.Normalized()
	cells := make([]Cell, len(s.Algorithms)*len(s.Workloads)*len(s.Sizes)*len(s.Seeds))
	for i := range cells {
		cells[i] = s.CellAt(i)
	}
	return cells
}

// CellAt returns the cell at canonical index i of a normalized spec
// (Normalized) — Cells()[i], without enumerating the grid: seeds vary
// fastest, then sizes, workloads and algorithms. On a spec with
// repeated dimension values the index is not Cells's.
func (s SweepSpec) CellAt(i int) Cell {
	c := Cell{Seed: s.Seeds[i%len(s.Seeds)], MaxRounds: s.MaxRounds, Dynamics: s.Dynamics}
	i /= len(s.Seeds)
	c.N = s.Sizes[i%len(s.Sizes)]
	i /= len(s.Sizes)
	c.Workload = s.Workloads[i%len(s.Workloads)]
	c.Algorithm = s.Algorithms[i/len(s.Workloads)]
	return c
}

// dedup removes repeated values, keeping first-occurrence order.
func dedup[T comparable](xs []T) []T {
	seen := make(map[T]struct{}, len(xs))
	out := xs[:0:0]
	for _, x := range xs {
		if _, ok := seen[x]; ok {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	return out
}

// Validate checks that every named algorithm and workload exists,
// every size passes checkN, and the grid is non-empty.
func (s SweepSpec) Validate() error {
	if s.NumCells() == 0 {
		return errors.New("expt: empty sweep grid (every dimension needs at least one value)")
	}
	for _, a := range s.Algorithms {
		if _, err := lookup(a); err != nil {
			return err
		}
	}
	for _, w := range s.Workloads {
		if !slices.Contains(Workloads(), w) {
			return fmt.Errorf("expt: unknown workload %q (want one of %v)", w, Workloads())
		}
	}
	for _, n := range s.Sizes {
		if err := checkN(n); err != nil {
			return err
		}
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("expt: max_rounds must be non-negative, got %d", s.MaxRounds)
	}
	if s.Dynamics == nil {
		return nil
	}
	if err := s.Dynamics.Validate(); err != nil {
		return err
	}
	return requireSimulated(s.Algorithms...)
}

// CellResult is the measured product of one grid cell. A cell whose
// run failed keeps the run's partial Outcome beside its Err (a
// *sim.Failure, possibly wrapped); the wire form of an error cell
// carries the error text only.
type CellResult struct {
	Index     int  // position in SweepSpec.Cells order
	Cell      Cell //
	Outcome   Outcome
	FromCache bool  // answered by Lookup without running
	Ran       bool  // a simulation actually executed
	Err       error // run failure or cancellation for this cell
	// Duration is the wall-clock cost of executing the cell (zero for
	// cache hits and skipped cells). It feeds the service's
	// cell-duration histogram and never enters the wire shape, so
	// cross-process stream and aggregate comparisons stay byte-exact.
	Duration time.Duration
}

// resultCell is the cell a result measured: what Groups reads.
func resultCell(cr CellResult) Cell { return cr.Cell }

// WireCell is the flat wire form of a CellResult: one NDJSON line of
// a sweep's cell stream, the cell payload of a journal record, and
// what a fleet coordinator reads back from its workers. The dynamics
// block is deliberately absent — it belongs to the grid, so whatever
// needs a wire cell's run key takes the grid's own cell at Index.
type WireCell struct {
	Index     int      `json:"index"`
	Algorithm string   `json:"algorithm"`
	Workload  string   `json:"workload"`
	N         int      `json:"n"`
	Seed      int64    `json:"seed"`
	MaxRounds int      `json:"max_rounds,omitempty"`
	FromCache bool     `json:"from_cache"`
	Outcome   *Outcome `json:"outcome,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// WireCellResult reconstructs the CellResult a wire cell denotes: an
// error cell carries the error text and no outcome, any other cell its
// outcome. It takes the line's fields rather than a WireCell so clients
// that decode lines into their own struct can call it.
func WireCellResult(index int, cell Cell, fromCache bool, outcome *Outcome, errText string) CellResult {
	cr := CellResult{Index: index, Cell: cell, FromCache: fromCache}
	if errText != "" {
		cr.Err = errors.New(errText)
	} else if outcome != nil {
		cr.Outcome = *outcome
	}
	return cr
}

// WireSummary trails a sweep's cell stream with sweep-level totals.
// Replayed counts cells answered from the sweep's journal done-set
// (they count as cache hits too); omitempty keeps the wire shape of
// an uninterrupted run byte-identical to pre-durability servers.
type WireSummary struct {
	Done      bool `json:"done"`
	Cells     int  `json:"cells"`
	CacheHits int  `json:"cache_hits"`
	Executed  int  `json:"executed"`
	Errors    int  `json:"errors"`
	Replayed  int  `json:"replayed,omitempty"`
}

// SweepOptions configures ExecuteSweep.
type SweepOptions struct {
	// Workers sizes the engine fleet (default GOMAXPROCS, capped at
	// the number of cells). Each worker owns one Runner, so per-run
	// buffers are reused across that worker's share of the grid.
	Workers int
	// SimOpts are appended to every cell's run (after algorithm
	// defaults and the cell's own MaxRounds).
	SimOpts []sim.Option
	// CellTimeLimit, when positive, is the wall-clock budget per
	// cell: each run gets a child of Context that expires after it, is
	// aborted between rounds when it does, and records the budget as
	// that cell's error.
	CellTimeLimit time.Duration
	// Lookup, when set, is consulted before running a cell, with its
	// canonical index; a hit skips the simulation and marks the cell
	// FromCache. It is the only hook called from worker goroutines,
	// concurrently.
	Lookup func(i int, c Cell) (Outcome, bool)
	// Emit, when set, receives every CellResult in canonical cell
	// order, from the calling goroutine, as soon as ordering allows.
	// Whatever outlives the sweep (a cache, a journal) is written here.
	Emit func(CellResult)
	// Context, when set, aborts the sweep once done: cells not yet
	// started fail fast with sim.ErrCanceled, in-flight runs are
	// aborted between rounds. Nil means the sweep is never canceled.
	Context context.Context
}

// ExecuteSweep runs the whole grid on a fleet of engine-backed
// Runners, one goroutine each, which claim cells in canonical order,
// and returns the results in that order. Individual cell failures are
// recorded in CellResult.Err and do not abort the sweep; the returned
// error is non-nil only for an invalid spec or a canceled sweep.
func ExecuteSweep(spec SweepSpec, opts SweepOptions) ([]CellResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	results := make([]CellResult, len(cells))

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	var claimed atomic.Int64
	done := make(chan int, len(cells))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewRunner()
			defer r.Close()
			for i := int(claimed.Add(1) - 1); i < len(cells); i = int(claimed.Add(1) - 1) {
				results[i] = runCell(ctx, r, i, cells[i], opts)
				done <- i
			}
		}()
	}

	// Drain completions, emitting in canonical order.
	finished := make([]bool, len(cells))
	next := 0
	for range cells {
		finished[<-done] = true
		for ; next < len(cells) && finished[next]; next++ {
			if opts.Emit != nil {
				opts.Emit(results[next])
			}
		}
	}
	wg.Wait()

	if ctx.Err() != nil {
		return results, fmt.Errorf("expt: sweep: %w", sim.ErrCanceled)
	}
	return results, nil
}

// errCellTimeLimit is the cause a cell's context carries when its own
// CellTimeLimit, rather than the sweep's context, ended the run.
var errCellTimeLimit = errors.New("expt: cell time limit")

// runCell executes (or serves from Lookup) one cell on the
// worker's Runner, under ctx and the cell's own time limit.
func runCell(ctx context.Context, r *Runner, idx int, cell Cell, opts SweepOptions) CellResult {
	res := CellResult{Index: idx, Cell: cell}
	if ctx.Err() != nil {
		res.Err = fmt.Errorf("expt: cell skipped: %w", sim.ErrCanceled)
		return res
	}
	if opts.Lookup != nil {
		if out, ok := opts.Lookup(idx, cell); ok {
			res.Outcome, res.FromCache = out, true
			return res
		}
	}
	req := cell.Request()
	req.SimOpts = append(req.SimOpts, opts.SimOpts...)
	if opts.CellTimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.CellTimeLimit, errCellTimeLimit)
		defer cancel()
	}
	if done := ctx.Done(); done != nil {
		req.SimOpts = append(req.SimOpts, sim.WithCancel(done))
	}
	res.Ran = true
	start := time.Now()
	out, err := r.Execute(req)
	res.Duration = time.Since(start)
	res.Outcome = out
	if err != nil && errors.Is(context.Cause(ctx), errCellTimeLimit) {
		err = fmt.Errorf("expt: cell time limit %s exceeded: %w", opts.CellTimeLimit, err)
	}
	res.Err = err
	return res
}
