//go:build !race

package expt

import (
	"runtime"
	"testing"

	"adnet/internal/sim"
)

// steadyStateAllocs returns the heap allocations one execution of req
// costs on a warm Runner. Two warm-up runs precede the measurement: the
// first grows every buffer, the second verifies nothing regrows.
func steadyStateAllocs(t *testing.T, req Request) float64 {
	t.Helper()
	r := NewRunner()
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, err := r.Execute(req); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(5, func() {
		if _, err := r.Execute(req); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStarSteadyStateZeroAllocs pins the PR's headline property: after
// warm-up, a graph-to-star run on a reused Runner — workload
// generation, machine recycling, the full round loop, intent
// application, observer fold and post-run analysis — performs zero
// heap allocations. Excluded under -race because the detector's
// instrumentation allocates. Workloads cover both bench families.
func TestStarSteadyStateZeroAllocs(t *testing.T) {
	obs := []sim.Option{sim.WithRunObserver(func(sim.RunSummary) {})}
	for _, workload := range []string{"line", "ring"} {
		allocs := steadyStateAllocs(t, Request{Algorithm: AlgoStar, Workload: workload, N: 1024, Seed: 1, SimOpts: obs})
		if allocs != 0 {
			t.Errorf("workload %s: steady-state allocs per run = %v, want 0", workload, allocs)
		}
	}
	// The same property far past the caches (the benchmark's star-large
	// cell). AllocsPerRun's own warm-up call grows the buffers; each
	// run takes seconds, so there is one measured run.
	if testing.Short() {
		return
	}
	r := NewRunner()
	defer r.Close()
	req := Request{Algorithm: AlgoStar, Workload: "line", N: 65536, Seed: 1, SimOpts: obs}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := r.Execute(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("line/65536: steady-state allocs per run = %v, want 0", allocs)
	}
}

// TestWreathSteadyStateZeroAllocs is the same pin for the §4/§5
// machines: a warm Runner re-runs a wreath cell — recycled machines,
// the embedded rebuild re-initialised in place every phase, pointer
// payloads — and internal/core, internal/subroutine and the engine
// never touch the heap. What remains is pinned exactly and lies
// outside them: the round-cap option the registry builds per run
// (sim.WithMaxRounds' closure, appendDefaults) on every wreath cell,
// and on random-tree the generator's rand.NewSource (WorkloadInto)
// plus graph.RandomTreeInto's Prüfer-sequence and degree slices.
func TestWreathSteadyStateZeroAllocs(t *testing.T) {
	for _, algo := range []string{AlgoWreath, AlgoThinWreath} {
		for workload, want := range map[string]float64{"line": 1, "ring": 1, "random-tree": 4} {
			allocs := steadyStateAllocs(t, Request{Algorithm: algo, Workload: workload, N: 256, Seed: 1})
			if allocs != want {
				t.Errorf("%s on %s: steady-state allocs per run = %v, want %v", algo, workload, allocs, want)
			}
		}
	}
}

// TestBaselineSteadyStateZeroAllocs is the same pin for the two
// distributed baselines: known sets are bitsets recycled with their
// machines and the message is a pointer to one, so a warm Runner
// re-runs a flood or clique cell without touching the heap. (A flood
// message used to be a fresh []graph.ID of everything the node knew.)
func TestBaselineSteadyStateZeroAllocs(t *testing.T) {
	for _, req := range []Request{
		{Algorithm: AlgoFlood, Workload: "line", N: 512, Seed: 1},
		{Algorithm: AlgoFlood, Workload: "ring", N: 256, Seed: 1},
		{Algorithm: AlgoClique, Workload: "line", N: 64, Seed: 1},
	} {
		if allocs := steadyStateAllocs(t, req); allocs != 0 {
			t.Errorf("%s on %s/%d: steady-state allocs per run = %v, want 0", req.Algorithm, req.Workload, req.N, allocs)
		}
	}
}

// TestFreshRunnerFirstRunBytes bounds the bytes a fresh Runner
// allocates for its first graph-to-star/line/4096 run: workload
// generation, every engine buffer grown from nothing, one machine per
// node and the verdict (DESIGN.md § "Per-node footprint"; the root
// BenchmarkFreshRunnerStarLine4096 reports it per node). The limit is
// the measured 4,696,856 B (1,146 B/node) plus 5%.
func TestFreshRunnerFirstRunBytes(t *testing.T) {
	const limit = 4_696_856 * 105 / 100
	req := Request{Algorithm: AlgoStar, Workload: "line", N: 4096, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRunner()
	if _, err := r.Execute(req); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	r.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("a fresh Runner's first graph-to-star/line/4096 run allocated %d B (%d B/node), want <= %d",
			got, got/uint64(req.N), limit)
	}
}
