package expt

import (
	"reflect"
	"testing"

	"adnet/internal/baseline"
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
// algorithm on a randomized workload on a fresh engine and twice on
// one Runner, and requires identical Outcomes: engine reuse, like
// machine recycling, is an engineering choice, never an observable.
// (The name predates the one-goroutine engine.)
func TestOutcomeDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
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
			fresh := NewRunner()
			base, err := fresh.RunAlgorithm(tc.algo, g)
			fresh.Close()
			if err != nil {
				t.Fatalf("fresh: %v", err)
			}
			r := NewRunner()
			defer r.Close()
			for run := 1; run <= 2; run++ {
				out, err := r.RunAlgorithm(tc.algo, g)
				if err != nil {
					t.Fatalf("runner run %d: %v", run, err)
				}
				if out != base {
					t.Errorf("runner run %d diverged:\n%+v\nvs fresh:\n%+v", run, out, base)
				}
			}
		})
	}
}

// TestTraceDeterministicAcrossParallelism pins the stronger property
// for every distributed algorithm: the full per-round record — every
// round's RoundDelta, not just the aggregate outcome — plus the final
// metrics and statuses are identical on a fresh engine and on one
// reused after a run of another algorithm and size. (The name predates
// the one-goroutine engine.)
func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	const n = 96
	for _, name := range Algorithms() {
		if !Simulated(name) {
			continue
		}
		factory, defaults, err := Simulation(name, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := Workload("random", n, 77)
			if err != nil {
				t.Fatal(err)
			}
			run := func(e *sim.Engine) (*sim.Result, []temporal.RoundDelta, map[graph.ID]sim.Status) {
				var log []temporal.RoundDelta
				opts := append([]sim.Option{recordDeltas(&log)}, defaults...)
				if err := e.Reset(g, factory, opts...); err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				statuses := make(map[graph.ID]sim.Status)
				for nd := range res.Nodes {
					statuses[nd.ID] = nd.Status
				}
				return res, log, statuses
			}
			fresh := sim.NewEngine()
			defer fresh.Close()
			base, baseLog, baseStatuses := run(fresh)
			if len(baseLog) != base.Rounds {
				t.Fatalf("%d deltas recorded for %d rounds", len(baseLog), base.Rounds)
			}
			reused := sim.NewEngine()
			defer reused.Close()
			if err := reused.Reset(graph.Line(40), baseline.NewFloodFactory()); err != nil {
				t.Fatal(err)
			}
			if _, err := reused.Run(); err != nil {
				t.Fatal(err)
			}
			res, log, statuses := run(reused)
			if res.Rounds != base.Rounds {
				t.Fatalf("reused engine: rounds %d vs %d", res.Rounds, base.Rounds)
			}
			if res.Metrics != base.Metrics {
				t.Fatalf("reused engine: metrics diverged:\n%+v\nvs\n%+v", res.Metrics, base.Metrics)
			}
			if !reflect.DeepEqual(statuses, baseStatuses) {
				t.Fatal("reused engine: statuses diverged")
			}
			for i := range baseLog {
				if !reflect.DeepEqual(baseLog[i], log[i]) {
					t.Fatalf("reused engine: delta diverged at round %d:\nwant %+v\ngot  %+v",
						i+1, baseLog[i], log[i])
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
