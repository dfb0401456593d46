package expt

import (
	"reflect"
	"runtime"
	"testing"

	"adnet/internal/baseline"
	"adnet/internal/core"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// recordDeltas appends a copy of every round's RoundDelta — the
// per-round record, all four lists — to log. The engine reuses the
// lists the next round, hence the copies; empty lists are stored as
// nil so logs compare with reflect.DeepEqual.
func recordDeltas(log *[]temporal.RoundDelta) sim.Option {
	return sim.WithDeltaHook(func(d temporal.RoundDelta) {
		*log = append(*log, temporal.RoundDelta{
			Round:         d.Round,
			Activate:      append([]int32(nil), d.Activate...),
			Deactivate:    append([]int32(nil), d.Deactivate...),
			EnvActivate:   append([]int32(nil), d.EnvActivate...),
			EnvDeactivate: append([]int32(nil), d.EnvDeactivate...),
		})
	})
}

// TestOutcomeDeterministicAcrossParallelism runs every distributed
// algorithm on a randomized workload with 1, 2 and GOMAXPROCS workers
// and requires identical Outcomes: worker count is an engineering
// knob, never an observable.
func TestOutcomeDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	cases := []struct {
		algo     string
		workload string
		n        int
	}{
		{AlgoStar, "random", 96},
		{AlgoWreath, "bounded-degree", 96},
		{AlgoThinWreath, "bounded-degree", 96},
		{AlgoClique, "random-tree", 64},
		{AlgoFlood, "random", 96},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.algo, func(t *testing.T) {
			t.Parallel()
			g, err := Workload(tc.workload, tc.n, 1234)
			if err != nil {
				t.Fatal(err)
			}
			var base Outcome
			for i, w := range workerCounts {
				out, err := RunAlgorithm(tc.algo, g, sim.WithParallelism(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if i == 0 {
					base = out
					continue
				}
				if out != base {
					t.Errorf("workers=%d diverged:\n%+v\nvs workers=%d:\n%+v",
						w, out, workerCounts[0], base)
				}
			}
		})
	}
}

// TestTraceDeterministicAcrossParallelism pins the stronger property
// for every distributed algorithm: the full per-round record — every
// round's RoundDelta, not just the aggregate outcome — plus the final
// metrics and statuses are identical across worker counts. This is the
// PR 2 byte-identical-trace invariant carried through the per-worker
// intent batches and the batch-apply path.
func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	const n = 96
	cases := []struct {
		name    string
		factory sim.Factory
		opts    []sim.Option
	}{
		{AlgoStar, core.NewGraphToStarFactory(), nil},
		{AlgoWreath, core.NewGraphToWreathFactory(),
			[]sim.Option{sim.WithMaxRounds(core.WreathMaxRounds(n, core.WreathBranching(n, false)))}},
		{AlgoThinWreath, core.NewGraphToThinWreathFactory(),
			[]sim.Option{sim.WithMaxRounds(core.WreathMaxRounds(n, core.WreathBranching(n, true)))}},
		{AlgoClique, baseline.NewCliqueFactory(), nil},
		{AlgoFlood, baseline.NewFloodFactory(), nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g, err := Workload("random", n, 77)
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) (*sim.Result, []temporal.RoundDelta, map[graph.ID]sim.Status) {
				var log []temporal.RoundDelta
				opts := append([]sim.Option{sim.WithParallelism(workers), recordDeltas(&log)}, tc.opts...)
				res, err := sim.Run(g, tc.factory, opts...)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				statuses := make(map[graph.ID]sim.Status)
				for nd := range res.Nodes {
					statuses[nd.ID] = nd.Status
				}
				return res, log, statuses
			}
			base, baseLog, baseStatuses := run(1)
			if len(baseLog) != base.Rounds {
				t.Fatalf("%d deltas recorded for %d rounds", len(baseLog), base.Rounds)
			}
			for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
				res, log, statuses := run(w)
				if res.Rounds != base.Rounds {
					t.Fatalf("workers=%d: rounds %d vs %d", w, res.Rounds, base.Rounds)
				}
				if res.Metrics != base.Metrics {
					t.Fatalf("workers=%d: metrics diverged:\n%+v\nvs\n%+v", w, res.Metrics, base.Metrics)
				}
				if !reflect.DeepEqual(statuses, baseStatuses) {
					t.Fatalf("workers=%d: statuses diverged", w)
				}
				for i := range baseLog {
					if !reflect.DeepEqual(baseLog[i], log[i]) {
						t.Fatalf("workers=%d: delta diverged at round %d:\nwant %+v\ngot  %+v",
							w, i+1, baseLog[i], log[i])
					}
				}
			}
		})
	}
}

// TestRunnerIsolationAcrossAlgorithms is the engine-reuse isolation
// test at the harness level: interleaving different algorithms and
// graph families on one Runner must leave each run's outcome
// untouched by its predecessors.
func TestRunnerIsolationAcrossAlgorithms(t *testing.T) {
	t.Parallel()
	r := NewRunner()
	defer r.Close()
	seq := []Request{
		{Algorithm: AlgoWreath, Workload: "bounded-degree", N: 64, Seed: 5},
		{Algorithm: AlgoFlood, Workload: "line", N: 16, Seed: 5},
		{Algorithm: AlgoStar, Workload: "increasing-ring", N: 128, Seed: 5},
		{Algorithm: AlgoWreath, Workload: "bounded-degree", N: 64, Seed: 5}, // repeat
	}
	got := make([]Outcome, len(seq))
	for i, req := range seq {
		out, err := r.Execute(req)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got[i] = out
	}
	if got[0] != got[3] {
		t.Errorf("same spec diverged across engine reuse:\n%+v\n%+v", got[0], got[3])
	}
	for i, req := range seq {
		fresh, err := Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != fresh {
			t.Errorf("step %d leaked state: reused %+v, fresh %+v", i, got[i], fresh)
		}
	}
	// The deeper structural check: a fresh graph run right after the
	// interleaving still satisfies its post-condition.
	gstar, err := Workload("line", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.RunAlgorithm(AlgoStar, gstar)
	if err != nil {
		t.Fatal(err)
	}
	if !out.LeaderOK || out.FinalDiameter > 2 {
		t.Errorf("post-reuse run broke post-condition: %+v", out)
	}
}
