package expt

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adnet/internal/graph"
	"adnet/internal/sim"
)

func TestSweepSpecCellsCanonicalOrder(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{AlgoFlood, AlgoStar},
		Workloads:  []string{"line"},
		Sizes:      []int{8, 16},
		Seeds:      []int64{1, 2},
	}
	cells := spec.Cells()
	if len(cells) != spec.NumCells() || len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	want := Cell{Algorithm: AlgoFlood, Workload: "line", N: 8, Seed: 1}
	if cells[0] != want {
		t.Fatalf("cells[0] = %+v", cells[0])
	}
	if cells[4].Algorithm != AlgoStar {
		t.Fatalf("cells not algorithm-major: %+v", cells[4])
	}
}

// TestSweepSpecCellAtIsCanonicalOrder pins CellAt, which Cells is
// built from, against the canonical nested loops — algorithm-major,
// seeds fastest — over the normalized dimensions of a grid with
// repeats in each.
func TestSweepSpecCellAtIsCanonicalOrder(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{AlgoFlood, AlgoStar, AlgoFlood},
		Workloads:  []string{"ring", "line", "ring"},
		Sizes:      []int{16, 8, 16, 32},
		Seeds:      []int64{3, 1, 3, 2},
		MaxRounds:  40,
	}
	norm := spec.Normalized()
	var want []Cell
	for _, a := range norm.Algorithms {
		for _, w := range norm.Workloads {
			for _, n := range norm.Sizes {
				for _, seed := range norm.Seeds {
					want = append(want, Cell{Algorithm: a, Workload: w, N: n, Seed: seed, MaxRounds: 40})
				}
			}
		}
	}
	cells := spec.Cells()
	if len(want) != 2*2*3*3 || len(cells) != len(want) || spec.NumCells() != len(want) {
		t.Fatalf("%d cells, NumCells %d, want %d", len(cells), spec.NumCells(), len(want))
	}
	for i, c := range want {
		if cells[i] != c || norm.CellAt(i) != c {
			t.Fatalf("cell %d: Cells %+v, CellAt %+v, want %+v", i, cells[i], norm.CellAt(i), c)
		}
	}
}

func TestSweepSpecDedupesDimensions(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{AlgoFlood, AlgoFlood},
		Workloads:  []string{"line", "ring", "line"},
		Sizes:      []int{8, 8, 16},
		Seeds:      []int64{1, 1},
	}
	if got := spec.NumCells(); got != 1*2*2*1 {
		t.Fatalf("NumCells = %d, want 4 after dedup", got)
	}
	cells := spec.Cells()
	if len(cells) != 4 {
		t.Fatalf("Cells = %d, want 4", len(cells))
	}
	seen := map[Cell]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Fatalf("duplicate cell %+v survived dedup", c)
		}
		seen[c] = true
	}
	// First-occurrence order is preserved.
	if cells[0].Workload != "line" || cells[1].Workload != "line" || cells[2].Workload != "ring" {
		t.Fatalf("dedup reordered dimensions: %+v", cells)
	}
}

func TestSweepSpecValidate(t *testing.T) {
	t.Parallel()
	ok := SweepSpec{Algorithms: []string{AlgoFlood}, Workloads: []string{"line"},
		Sizes: []int{4}, Seeds: []int64{1}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []SweepSpec{
		{Algorithms: []string{"nope"}, Workloads: []string{"line"}, Sizes: []int{4}, Seeds: []int64{1}},
		{Algorithms: []string{AlgoFlood}, Workloads: []string{"nope"}, Sizes: []int{4}, Seeds: []int64{1}},
		{Algorithms: []string{AlgoFlood}, Workloads: []string{"line"}, Sizes: []int{1}, Seeds: []int64{1}},
		{Algorithms: []string{AlgoFlood}, Workloads: []string{"line"}, Sizes: []int{4}, Seeds: nil},
		{},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestSizeBeyondIDRange: a network with more than graph.MaxNodes nodes
// has IDs past graph.ID's range, so every entry point that takes a size
// refuses it before building anything; graph.MaxNodes itself is valid.
func TestSizeBeyondIDRange(t *testing.T) {
	t.Parallel()
	grid := func(n int) SweepSpec {
		return SweepSpec{Algorithms: []string{AlgoStar}, Workloads: []string{"line"}, Sizes: []int{n}, Seeds: []int64{1}}
	}
	if err := grid(graph.MaxNodes).Validate(); err != nil {
		t.Fatalf("n = graph.MaxNodes rejected: %v", err)
	}
	const n = graph.MaxNodes + 1
	if err := grid(n).Validate(); err == nil || !strings.Contains(err.Error(), "graph.MaxNodes") {
		t.Errorf("SweepSpec.Validate(n = %d) = %v, want an error naming graph.MaxNodes", n, err)
	}
	cell := Cell{Algorithm: AlgoStar, Workload: "line", N: n, Seed: 1}
	if err := cell.Validate(); err == nil {
		t.Errorf("Cell.Validate(n = %d) accepted", n)
	}
	r := NewRunner()
	defer r.Close()
	if _, err := r.Execute(cell.Request()); err == nil {
		t.Errorf("Execute(n = %d), which skips Validate, accepted", n)
	}
}

func TestExecuteSweepMatchesIndividualRuns(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{AlgoFlood, AlgoStar},
		Workloads:  []string{"line", "random-tree"},
		Sizes:      []int{16, 32},
		Seeds:      []int64{3},
	}
	var emitted []int
	results, err := ExecuteSweep(spec, SweepOptions{
		Workers: 3,
		Emit:    func(cr CellResult) { emitted = append(emitted, cr.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != spec.NumCells() {
		t.Fatalf("results = %d, want %d", len(results), spec.NumCells())
	}
	// Emit order is canonical regardless of worker scheduling.
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emit order %v not canonical", emitted)
		}
	}
	for i, cr := range results {
		if cr.Err != nil {
			t.Fatalf("cell %d: %v", i, cr.Err)
		}
		if !cr.Ran || cr.FromCache {
			t.Fatalf("cell %d flags: %+v", i, cr)
		}
		want, err := Execute(cr.Cell.Request())
		if err != nil {
			t.Fatal(err)
		}
		if cr.Outcome != want {
			t.Errorf("cell %d (%+v): outcome %+v, individual run %+v", i, cr.Cell, cr.Outcome, want)
		}
	}
}

func TestExecuteSweepLookupAndStore(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{AlgoFlood},
		Workloads:  []string{"line"},
		Sizes:      []int{8, 16},
		Seeds:      []int64{1, 2},
	}
	var mu sync.Mutex
	cache := map[Cell]Outcome{}
	opts := SweepOptions{
		Workers: 2,
		Lookup: func(_ int, c Cell) (Outcome, bool) {
			mu.Lock()
			defer mu.Unlock()
			out, ok := cache[c]
			return out, ok
		},
		Emit: func(cr CellResult) {
			if !cr.Ran || cr.Err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			cache[cr.Cell] = cr.Outcome
		},
	}
	first, err := ExecuteSweep(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range first {
		if cr.Err != nil || !cr.Ran || cr.FromCache {
			t.Fatalf("first pass cell %d: %+v", i, cr)
		}
	}
	second, err := ExecuteSweep(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range second {
		if cr.Err != nil || cr.Ran || !cr.FromCache {
			t.Fatalf("second pass cell %d not served from cache: %+v", i, cr)
		}
		if cr.Outcome != first[i].Outcome {
			t.Fatalf("cached outcome differs for cell %d", i)
		}
	}
}

func TestExecuteSweepCellErrorDoesNotAbort(t *testing.T) {
	t.Parallel()
	// bounded-degree at tiny n errors in the generator for some seeds;
	// instead rely on a round-limited star run: MaxRounds 1 cannot
	// finish GraphToStar, so that cell errs while flood succeeds.
	spec := SweepSpec{
		Algorithms: []string{AlgoStar},
		Workloads:  []string{"line"},
		Sizes:      []int{32},
		Seeds:      []int64{1},
		MaxRounds:  1,
	}
	results, err := ExecuteSweep(spec, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("round-limited cell did not err")
	}
	if failureKind(results[0].Err) != sim.RoundLimit {
		t.Fatalf("cell err = %v, want round limit", results[0].Err)
	}
}

func TestExecuteSweepCellTimeLimit(t *testing.T) {
	t.Parallel()
	// A 10ms budget against runs that take hundreds of milliseconds:
	// every cell errs with the time-limit message, but the sweep
	// itself still completes.
	spec := SweepSpec{
		Algorithms: []string{AlgoStar},
		Workloads:  []string{"line"},
		Sizes:      []int{4096},
		Seeds:      []int64{1, 2},
	}
	results, err := ExecuteSweep(spec, SweepOptions{Workers: 1, CellTimeLimit: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range results {
		if cr.Err == nil {
			t.Fatalf("cell %d finished within 1ns", i)
		}
		if !errors.Is(cr.Err, sim.ErrCanceled) || !strings.Contains(cr.Err.Error(), "time limit") {
			t.Fatalf("cell %d err = %v, want time-limit cancellation", i, cr.Err)
		}
	}
}

func TestExecuteSweepCancel(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{AlgoFlood},
		Workloads:  []string{"line"},
		Sizes:      []int{8, 16, 32, 64},
		Seeds:      []int64{1, 2, 3, 4},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the sweep starts
	results, err := ExecuteSweep(spec, SweepOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	for i, cr := range results {
		if cr.Err == nil {
			t.Fatalf("cell %d ran after cancellation", i)
		}
	}
}

// TestSweepStartsNoGoroutineBesidesItsRunners pins what a one-worker
// sweep keeps alive while a cell runs under both a sweep context and a
// cell time limit: its runner, and nothing else. Not parallel: it
// counts goroutines.
func TestSweepStartsNoGoroutineBesidesItsRunners(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := SweepSpec{
		Algorithms: []string{AlgoFlood},
		Workloads:  []string{"line"},
		Sizes:      []int{16},
		Seeds:      []int64{1, 2, 3},
	}
	before := runtime.NumGoroutine()
	inside := -1
	_, err := ExecuteSweep(spec, SweepOptions{
		Workers:       1,
		Context:       ctx,
		CellTimeLimit: time.Minute,
		SimOpts: []sim.Option{sim.WithStartHook(func(sim.StartEvent) {
			if inside < 0 {
				inside = runtime.NumGoroutine()
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := inside - before; got != 1 {
		t.Fatalf("goroutines alive inside a cell = %d beyond the %d before the sweep, want 1 (the runner)", got, before)
	}
}

// TestSweepCellErrorNamesItsOwnCause pins which of the two deadlines
// a cell's error names: the cell's own time limit when it fired first,
// even if the sweep is canceled right after, and never the time limit
// when the sweep's context interrupted the cell within its budget.
func TestSweepCellErrorNamesItsOwnCause(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{AlgoFlood},
		Workloads:  []string{"line"},
		Sizes:      []int{64},
		Seeds:      []int64{1},
	}
	run := func(limit time.Duration, hook func(cancel context.CancelFunc)) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		results, err := ExecuteSweep(spec, SweepOptions{
			Workers:       1,
			Context:       ctx,
			CellTimeLimit: limit,
			SimOpts:       []sim.Option{sim.WithStartHook(func(sim.StartEvent) { hook(cancel) })},
		})
		if !errors.Is(err, sim.ErrCanceled) {
			t.Fatalf("sweep err = %v, want ErrCanceled", err)
		}
		if !errors.Is(results[0].Err, sim.ErrCanceled) {
			t.Fatalf("cell err = %v, want ErrCanceled", results[0].Err)
		}
		return results[0].Err
	}

	// The cell's budget runs out before round 1; the sweep is canceled
	// after that, before the engine next looks.
	const limit = time.Millisecond
	err := run(limit, func(cancel context.CancelFunc) {
		time.Sleep(50 * limit)
		cancel()
	})
	if want := "cell time limit " + limit.String() + " exceeded"; !strings.Contains(err.Error(), want) {
		t.Errorf("cell over its own limit: err = %v, want it to contain %q", err, want)
	}

	// The sweep is canceled well within the cell's budget.
	err = run(time.Minute, func(cancel context.CancelFunc) { cancel() })
	if strings.Contains(err.Error(), "time limit") {
		t.Errorf("cell interrupted by the sweep: err = %v, must not mention a time limit", err)
	}
}

func TestRunnerReuseMatchesExecute(t *testing.T) {
	t.Parallel()
	r := NewRunner()
	defer r.Close()
	reqs := []Request{
		{Algorithm: AlgoStar, Workload: "line", N: 64, Seed: 1},
		{Algorithm: AlgoFlood, Workload: "random-tree", N: 48, Seed: 9},
		{Algorithm: AlgoClique, Workload: "ring", N: 24, Seed: 2},
		{Algorithm: AlgoStar, Workload: "line", N: 64, Seed: 1}, // repeat of the first
	}
	for i, req := range reqs {
		got, err := r.Execute(req)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		want, err := Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("req %d: runner %+v, fresh %+v", i, got, want)
		}
	}
}
